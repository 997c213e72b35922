package main

// Example pins the demo's stdout. The four path latencies are the SCT
// calibration's (DESIGN.md §4), so a calibration change shows here.
func Example() {
	main()
	// Output:
	// -- the four access paths (Fig. 5) --
	// cold read:             580 cycles (path 4, 6 tree levels loaded)
	// hot read:                1 cycles (path 1)
	// counter cached:        182 cycles (path 2)
	// tree leaf cached:      254 cycles (path 3)
	//
	// -- encryption is real --
	// round trip: "attack at dawn"
	//
	// -- tampering is really detected --
	// bit flip (spoofing):   detected=true
	// stale data (replay):   detected=true
	//
	// controller: 8 reads, 4 writes, 2 counter misses, 6 tree node loads
}
