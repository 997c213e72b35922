package main

// Example pins the demo's stdout: both covert channels deliver "META"
// intact on the simulated SCT machine.
func Example() {
	main()
	// Output:
	// == MetaLeak-T: bits through tree-node caching state ==
	// sent "META", spy decoded "META" (accuracy 100.0%, 42850 cycles/bit)
	//
	// == MetaLeak-C: 7-bit symbols through counter overflow ==
	// sent "META", spy decoded "META" (accuracy 100.0%)
	// probe writes per symbol (m): [126 114 126 122 126 107 126 126]
}
