// Examples are roots whole: nothing in them is reported.
package main

import "fix/internal/lib"

func main() { lib.FromExample() }

func unusedInExample() {}
