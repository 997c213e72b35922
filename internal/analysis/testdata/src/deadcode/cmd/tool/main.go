package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"fix/internal/lib"
)

func main() {
	lib.Called()
	f := lib.FuncValue
	f()
	var c lib.Counter
	inc := c.MethodValue
	inc()
	_ = lib.Map([]int{1}, lib.Double)
	_ = lib.Box[string]{}.Get()

	var s lib.Shape = lib.Circle{}
	_ = s.Area()

	fmt.Println(lib.Named(3))
	if err := lib.Fail(); err != nil {
		fmt.Println(err)
	}
	out, _ := json.Marshal(lib.Doc{})
	fmt.Println(string(out))
	sort.Sort(lib.ByLen{"bb", "a"})
}
