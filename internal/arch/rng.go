package arch

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64). Every stochastic component of the simulator (replacement
// noise, background traffic, DRAM refresh jitter) draws from a seeded RNG
// so that experiments are exactly reproducible.
//
// The zero value is a valid generator seeded with 0; use NewRNG to pick a
// distinct stream.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value. Optional
// stream values derive statistically independent generators from one
// base seed — the seed-plumbing idiom of the sweep engine, where every
// trial needs its own stream keyed by (experiment seed, trial index)
// without correlated draws: NewRNG(seed) is bit-compatible with the
// historic one-argument form, and NewRNG(seed, i) differs from
// NewRNG(seed, j) for i != j.
func NewRNG(seed uint64, stream ...uint64) *RNG {
	r := &RNG{state: seed}
	for _, s := range stream {
		r.state = splitmix(r.state ^ splitmix(s))
	}
	return r
}

// splitmix is the SplitMix64 finalizer, used to fold stream keys into
// the state so that nearby (seed, stream) pairs land far apart.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64-bit pseudo-random value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("arch: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a pseudo-random boolean with probability p of being true.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
