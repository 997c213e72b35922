// Package mirage models the MIRAGE randomized cache (Saileshwar &
// Qureshi, USENIX Security 2021) used in the paper's §IX-B defence study:
// a two-skew V-way style design with extra invalid tags per set and fully
// random global eviction, which makes conflict-based eviction-set attacks
// (Prime+Probe) impractical.
//
// Fig. 18 of the paper shows why this does not stop MetaLeak-T: the
// attacker does not need a conflict-based eviction set — flushing the
// target out of a randomized cache just takes enough random accesses,
// because every miss evicts a uniformly random resident line.
package mirage

import (
	"fmt"

	"metaleak/internal/arch"
)

// Config describes a MIRAGE instance.
type Config struct {
	DataBlocks int // capacity of the data store (e.g. 256 KiB / 64 B = 4096)
	Sets       int // sets per skew
	BaseWays   int // baseline tag ways per skew (8)
	ExtraWays  int // additional invalid tags per set per skew (6)
	Seed       uint64
}

// DefaultConfig returns the configuration of the paper's experiment: the
// 256 KiB metadata cache re-organized as a two-skew MIRAGE with 8+6 ways
// per skew.
func DefaultConfig() Config {
	return Config{
		DataBlocks: 4096,
		Sets:       256,
		BaseWays:   8,
		ExtraWays:  6,
	}
}

type tag struct {
	block arch.BlockID
	valid bool
}

// Stats counts cache events.
type Stats struct {
	Hits            uint64
	Misses          uint64
	GlobalEvictions uint64
	SetEvictions    uint64 // set-associative evictions (MIRAGE's failure mode)
}

// Cache is a MIRAGE model. Not safe for concurrent use.
type Cache struct {
	cfg   Config
	skews [2][][]tag
	// resident maps a block to its tag location so random global eviction
	// can find and invalidate it; order keeps a deterministic list of
	// resident blocks for uniform sampling.
	resident map[arch.BlockID][3]int // skew, set, way
	order    []arch.BlockID
	orderIdx map[arch.BlockID]int
	// dirty state and last-eviction plumbing for metadata-cache duty.
	dirty       map[[3]int]bool
	dirtyBlocks map[arch.BlockID]bool
	lastEvict   Eviction
	haveEvict   bool
	rng         *arch.RNG
	keys        [2]uint64
	stats       Stats
}

// New builds a MIRAGE cache.
func New(cfg Config) *Cache {
	if cfg.DataBlocks <= 0 || cfg.Sets <= 0 {
		panic(fmt.Sprintf("mirage: bad config %+v", cfg))
	}
	c := &Cache{
		cfg:         cfg,
		resident:    make(map[arch.BlockID][3]int),
		orderIdx:    make(map[arch.BlockID]int),
		dirty:       make(map[[3]int]bool),
		dirtyBlocks: make(map[arch.BlockID]bool),
		rng:         arch.NewRNG(cfg.Seed ^ 0x319a6e),
	}
	ways := cfg.BaseWays + cfg.ExtraWays
	for s := 0; s < 2; s++ {
		c.skews[s] = make([][]tag, cfg.Sets)
		for i := range c.skews[s] {
			c.skews[s][i] = make([]tag, ways)
		}
		c.keys[s] = c.rng.Uint64()
	}
	return c
}

// setIndex computes the randomized set mapping for a skew (a keyed mix,
// standing in for MIRAGE's cipher-based index derivation).
func (c *Cache) setIndex(skew int, b arch.BlockID) int {
	x := uint64(b) ^ c.keys[skew]
	x ^= x >> 23
	x *= 0x2545f4914f6cdd1d
	x ^= x >> 29
	return int(x % uint64(c.cfg.Sets))
}

// Contains reports residency without touching state.
func (c *Cache) Contains(b arch.BlockID) bool {
	_, ok := c.resident[b]
	return ok
}

// Access touches a block, installing it on a miss. It returns whether the
// access hit.
func (c *Cache) Access(b arch.BlockID) bool {
	if c.Contains(b) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	c.install(b)
	return false
}

// install implements MIRAGE's load-aware skew selection with random
// global eviction.
func (c *Cache) install(b arch.BlockID) {
	s0, s1 := c.setIndex(0, b), c.setIndex(1, b)
	inv0, inv1 := c.invalidWays(0, s0), c.invalidWays(1, s1)
	skew, set := 0, s0
	switch {
	case inv0 == 0 && inv1 == 0:
		// No invalid tag in either skew: MIRAGE's SAE case, designed to be
		// astronomically rare with enough extra ways. Fall back to evicting
		// from a random skew's set.
		c.stats.SetEvictions++
		if c.rng.Bool(0.5) {
			skew, set = 1, s1
		}
		w := c.rng.Intn(len(c.skews[skew][set]))
		c.evictTag(skew, set, w)
	case inv1 > inv0:
		skew, set = 1, s1
	case inv0 > inv1:
		skew, set = 0, s0
	default:
		if c.rng.Bool(0.5) {
			skew, set = 1, s1
		}
	}
	// Data store full? Random global eviction.
	if len(c.order) >= c.cfg.DataBlocks {
		c.evictRandom()
	}
	for w := range c.skews[skew][set] {
		if !c.skews[skew][set][w].valid {
			c.skews[skew][set][w] = tag{block: b, valid: true}
			c.resident[b] = [3]int{skew, set, w}
			c.orderIdx[b] = len(c.order)
			c.order = append(c.order, b)
			return
		}
	}
	// All tags valid (only reachable in the SAE fallback, which freed one).
	panic("mirage: no free tag after eviction")
}

func (c *Cache) invalidWays(skew, set int) int {
	n := 0
	for _, t := range c.skews[skew][set] {
		if !t.valid {
			n++
		}
	}
	return n
}

func (c *Cache) evictTag(skew, set, way int) {
	t := &c.skews[skew][set][way]
	if t.valid {
		c.recordEviction(t.block, [3]int{skew, set, way})
		c.dropResident(t.block)
		t.valid = false
	}
}

// recordEviction captures the displaced block for InsertReport's caller.
func (c *Cache) recordEviction(b arch.BlockID, loc [3]int) {
	c.lastEvict = Eviction{Block: b, Dirty: c.dirty[loc]}
	c.haveEvict = true
	delete(c.dirty, loc)
	delete(c.dirtyBlocks, b)
}

// dropResident removes a block from the residency bookkeeping.
func (c *Cache) dropResident(b arch.BlockID) {
	delete(c.resident, b)
	i := c.orderIdx[b]
	last := len(c.order) - 1
	c.order[i] = c.order[last]
	c.orderIdx[c.order[i]] = i
	c.order = c.order[:last]
	delete(c.orderIdx, b)
}

// evictRandom removes a uniformly random resident block — the global
// eviction that decouples evictions from addresses.
func (c *Cache) evictRandom() {
	c.stats.GlobalEvictions++
	b := c.order[c.rng.Intn(len(c.order))]
	loc := c.resident[b]
	c.recordEviction(b, loc)
	c.skews[loc[0]][loc[1]][loc[2]].valid = false
	c.dropResident(b)
}

// The methods below let a MIRAGE instance serve as the memory controller's
// metadata cache (the §IX-B defence deployed, not just modelled): dirty
// tracking and eviction reporting match the set-associative cache's
// contract so the controller's lazy tree updates keep working.

// Eviction mirrors cache.Eviction for controller write-back handling.
type Eviction struct {
	Block arch.BlockID
	Dirty bool
}

// AccessW touches a block like Access but marks it dirty on a write hit.
// Misses do NOT install (the controller calls InsertReport explicitly,
// as with the set-associative cache).
func (c *Cache) AccessW(b arch.BlockID, write bool) bool {
	loc, ok := c.resident[b]
	if !ok {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	if write {
		c.dirty[loc] = true
		c.dirtyBlocks[b] = true
	}
	return true
}

// InsertReport installs a block, reporting the eviction it caused so the
// caller can write back dirty metadata.
func (c *Cache) InsertReport(b arch.BlockID, dirty bool) (Eviction, bool) {
	if loc, ok := c.resident[b]; ok {
		if dirty {
			c.dirty[loc] = true
			c.dirtyBlocks[b] = true
		}
		return Eviction{}, false
	}
	c.stats.Misses++
	c.lastEvict = Eviction{}
	c.haveEvict = false
	c.install(b)
	if dirty {
		loc := c.resident[b]
		c.dirty[loc] = true
		c.dirtyBlocks[b] = true
	}
	return c.lastEvict, c.haveEvict
}

// Invalidate removes a block, reporting whether it was present and dirty.
func (c *Cache) Invalidate(b arch.BlockID) (wasPresent, wasDirty bool) {
	loc, ok := c.resident[b]
	if !ok {
		return false, false
	}
	d := c.dirty[loc]
	c.skews[loc[0]][loc[1]][loc[2]].valid = false
	delete(c.dirty, loc)
	delete(c.dirtyBlocks, b)
	c.dropResident(b)
	return true, d
}
