// The benchmark is an unedited root: nothing in it is reported.
package main

import "fix/internal/lib"

func main() {}

func unusedInBench() { lib.FromBench() }
