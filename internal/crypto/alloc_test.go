//go:build (amd64 || arm64) && !purego

package crypto

import "testing"

// TestMACAndHashAllocs: a MAC or node hash of heap-resident input, the
// only kind the controller and trees pass, allocates nothing. The build
// constraint is the standard library's own for its GCM assembly: before
// Go 1.24 the portable GCM, which -tags purego selects, calls the block
// cipher through an interface, so its counter blocks escape to the heap.
func TestMACAndHashAllocs(t *testing.T) {
	e := eng()
	ct := new(Block)
	data := make([]byte, 1024)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink ^= e.MACOf(ct, 5, 9) }); n != 0 {
		t.Errorf("MACOf allocates %.1f objects per call, want 0", n)
	}
	for _, size := range []int{0, 17, 64, 72, 272, 1024} {
		if n := testing.AllocsPerRun(100, func() { sink ^= e.HashBytes(data[:size]) }); n != 0 {
			t.Errorf("HashBytes(%d B) allocates %.1f objects per call, want 0", size, n)
		}
	}
	_ = sink
}
