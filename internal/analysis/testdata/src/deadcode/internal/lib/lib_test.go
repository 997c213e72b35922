package lib

import "testing"

func testHelper() {}

func TestReference(t *testing.T) {
	TestOnly()
	Reference()
	testHelper()
}
