package main

// Example pins the demo's stdout: the exponent recovered on the SGX
// design point.
func Example() {
	main()
	// Output:
	// victim performed 192 square/multiply operations
	// operation trace accuracy: 100.0%
	// recovered exponent bits:  100.0% of 128 bits
	// secret exponent: c3a5f10e9b7d2468ace13579bdf02468
	// recovered:       c3a5f10e9b7d2468ace13579bdf02468
}
