// Package cache implements the set-associative caches of the simulated
// machine: the private L1/L2, the shared L3, and the memory controller's
// shared metadata cache that holds encryption counter blocks and integrity
// tree node blocks.
//
// A Cache tracks block identity and dirtiness only; block contents live in
// the secure memory controller's backing store. Evictions are reported to
// the caller so the controller can perform write-backs (which is where the
// lazy integrity tree update of §V of the paper happens).
package cache

import (
	"fmt"

	"metaleak/internal/arch"
)

// Policy selects the replacement policy for a cache.
type Policy int

const (
	// LRU replaces the least recently used way.
	LRU Policy = iota
	// Random replaces a uniformly random way.
	Random
)

// Config describes one cache instance.
type Config struct {
	Name       string      // for diagnostics ("L1", "meta", ...)
	SizeBytes  int         // total capacity
	Ways       int         // associativity
	HitLatency arch.Cycles // access latency on hit
	Policy     Policy
	Seed       uint64 // RNG seed for Random policy
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / arch.BlockSize / c.Ways }

// Eviction describes a block displaced by an Insert.
type Eviction struct {
	Block arch.BlockID
	Dirty bool
}

// Stats counts cache events since construction.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

type line struct {
	block   arch.BlockID
	valid   bool
	dirty   bool
	lastUse uint64
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator is single-threaded by design (determinism).
type Cache struct {
	cfg   Config
	sets  [][]line
	tick  uint64
	rng   *arch.RNG
	stats Stats
}

// New builds a cache from the configuration. It panics on a configuration
// that does not describe a whole power-of-two number of sets, since the
// index function relies on it, or whose size is not an exact multiple of
// BlockSize×Ways — integer truncation in Sets() would otherwise silently
// shrink capacity whenever the truncated set count happens to land on a
// power of two.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %s: invalid config %+v", cfg.Name, cfg))
	}
	if cfg.SizeBytes%(arch.BlockSize*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: size %d B is not a multiple of block size %d x %d ways",
			cfg.Name, cfg.SizeBytes, arch.BlockSize, cfg.Ways))
	}
	n := cfg.Sets()
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, n))
	}
	sets := make([][]line, n)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets, rng: arch.NewRNG(cfg.Seed ^ 0xcafe)}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetIndex returns the set a block maps to.
func (c *Cache) SetIndex(b arch.BlockID) int {
	return int(uint64(b) & uint64(len(c.sets)-1))
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() arch.Cycles { return c.cfg.HitLatency }

func (c *Cache) find(b arch.BlockID) (int, int) {
	si := c.SetIndex(b)
	for wi := range c.sets[si] {
		if c.sets[si][wi].valid && c.sets[si][wi].block == b {
			return si, wi
		}
	}
	return si, -1
}

// Contains reports whether the block is present without updating
// replacement state: the tests' probe of which level holds a block.
//
//metalint:allow deadcode residency probe for TestExclusiveHierarchySingleCopy and TestEvictionSetEvictsTarget
func (c *Cache) Contains(b arch.BlockID) bool {
	_, wi := c.find(b)
	return wi >= 0
}

// Access looks up the block, updating replacement state and statistics.
// If write is true and the block hits, the line is marked dirty.
// It returns whether the access hit.
func (c *Cache) Access(b arch.BlockID, write bool) bool {
	si, wi := c.find(b)
	if wi < 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.tick++
	c.sets[si][wi].lastUse = c.tick
	if write {
		c.sets[si][wi].dirty = true
	}
	return true
}

// Insert places the block into the cache (after a miss) and returns the
// eviction it caused, if any. If the block is already present the line is
// refreshed in place and no eviction occurs. The dirty flag marks the newly
// inserted line (true for write allocations).
func (c *Cache) Insert(b arch.BlockID, dirty bool) (Eviction, bool) {
	si, wi := c.find(b)
	c.tick++
	if wi >= 0 {
		c.sets[si][wi].lastUse = c.tick
		c.sets[si][wi].dirty = c.sets[si][wi].dirty || dirty
		return Eviction{}, false
	}
	// Choose a victim: an invalid way if one exists, else by policy.
	victim := -1
	for i := range c.sets[si] {
		if !c.sets[si][i].valid {
			victim = i
			break
		}
	}
	var ev Eviction
	evicted := false
	if victim < 0 {
		switch c.cfg.Policy {
		case Random:
			victim = c.rng.Intn(c.cfg.Ways)
		default: // LRU
			victim = 0
			for i := 1; i < c.cfg.Ways; i++ {
				if c.sets[si][i].lastUse < c.sets[si][victim].lastUse {
					victim = i
				}
			}
		}
		l := c.sets[si][victim]
		ev = Eviction{Block: l.block, Dirty: l.dirty}
		evicted = true
		c.stats.Evictions++
		if l.dirty {
			c.stats.Writebacks++
		}
	}
	c.sets[si][victim] = line{block: b, valid: true, dirty: dirty, lastUse: c.tick}
	return ev, evicted
}

// Invalidate removes the block if present and returns whether it was dirty.
// Unlike a natural eviction the caller decides what to do with the dirty
// state (a flush instruction writes back; an attack helper may drop it).
func (c *Cache) Invalidate(b arch.BlockID) (wasPresent, wasDirty bool) {
	si, wi := c.find(b)
	if wi < 0 {
		return false, false
	}
	dirty := c.sets[si][wi].dirty
	c.sets[si][wi] = line{}
	return true, dirty
}
