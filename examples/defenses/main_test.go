package main

// Example pins the demo's stdout: the undefended monitor, the per-domain
// tree construction failure and the volume-based MIRAGE eviction.
func Example() {
	main()
	// Output:
	// == 1. undefended SCT: MetaLeak-T works ==
	// monitor on the victim's tree leaf: 20/20 rounds correct
	//
	// == 2. per-domain trees (§IX-C): construction fails ==
	// monitor construction: core: no probe frame under L0[8192] satisfying constraints
	// honest execution intact: read back 42
	//
	// == 3. MIRAGE metadata cache (§IX-B): slowed, not stopped ==
	// conflict-based mEvict: core: randomized metadata cache — conflict-based mEvict unavailable
	// volume-based mEvict (800 accesses/round): 20/20 rounds correct at 190683 cycles/round
}
