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

// Config describes one cache instance. Replacement is LRU.
type Config struct {
	Name       string      // for diagnostics ("L1", "meta", ...)
	SizeBytes  int         // total capacity
	Ways       int         // associativity
	HitLatency arch.Cycles // access latency on hit
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

// Set storage. A set's lines come into being on its first Insert. Until
// then its slot is 0, which names the cache's cold set: one set of
// invalid lines that every unfilled set shares and nothing writes, since
// only a hit or an Insert writes a line. Filled sets are carved from
// chunks that never move, each twice the size of the one before, up to
// maxChunkSets sets. A slot holds chunk<<chunkBits | offset, the set's
// position in that storage, so a machine pays for the sets its run
// touches rather than for every line of every cache.
const (
	chunkBits    = 10
	maxChunkSets = 1 << chunkBits
)

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator is single-threaded by design (determinism).
type Cache struct {
	cfg    Config
	slot   []uint32 // per set: its storage position, 0 (the cold set) before its first Insert
	chunks [][]line // line storage, the cold set first; a chunk's length is the lines handed out
	tick   uint64
	stats  Stats
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
	return &Cache{cfg: cfg, slot: make([]uint32, n), chunks: [][]line{make([]line, cfg.Ways)}}
}

// lines returns set si's ways.
func (c *Cache) lines(si int) []line {
	v := c.slot[si]
	off := int(v&(maxChunkSets-1)) * c.cfg.Ways
	return c.chunks[v>>chunkBits][off : off+c.cfg.Ways]
}

// fill gives set si its own ways, all invalid, from the newest chunk,
// opening a chunk twice the size of the last (at most maxChunkSets sets)
// when that one is full.
func (c *Cache) fill(si int) []line {
	w := c.cfg.Ways
	last := len(c.chunks) - 1
	if len(c.chunks[last]) == cap(c.chunks[last]) {
		c.chunks = append(c.chunks, make([]line, 0, min(2*cap(c.chunks[last]), maxChunkSets*w)))
		last++
	}
	ch := c.chunks[last]
	off := len(ch)
	c.chunks[last] = ch[:off+w]
	c.slot[si] = uint32(last<<chunkBits | off/w)
	return ch[off : off+w]
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetIndex returns the set a block maps to.
func (c *Cache) SetIndex(b arch.BlockID) int {
	return int(uint64(b) & uint64(len(c.slot)-1))
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() arch.Cycles { return c.cfg.HitLatency }

// find returns the ways of the set b maps to and b's way in it, or -1.
func (c *Cache) find(b arch.BlockID) ([]line, int) {
	set := c.lines(c.SetIndex(b))
	for wi := range set {
		if set[wi].valid && set[wi].block == b {
			return set, wi
		}
	}
	return set, -1
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
	set, wi := c.find(b)
	if wi < 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.tick++
	set[wi].lastUse = c.tick
	if write {
		set[wi].dirty = true
	}
	return true
}

// Insert places the block into the cache (after a miss) and returns the
// eviction it caused, if any. If the block is already present the line is
// refreshed in place and no eviction occurs. The dirty flag marks the newly
// inserted line (true for write allocations).
func (c *Cache) Insert(b arch.BlockID, dirty bool) (Eviction, bool) {
	set, wi := c.find(b)
	c.tick++
	if wi >= 0 {
		set[wi].lastUse = c.tick
		set[wi].dirty = set[wi].dirty || dirty
		return Eviction{}, false
	}
	if si := c.SetIndex(b); c.slot[si] == 0 {
		set = c.fill(si)
	}
	// Choose a victim: an invalid way if one exists, else the LRU way.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	var ev Eviction
	evicted := false
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
		l := set[victim]
		ev = Eviction{Block: l.block, Dirty: l.dirty}
		evicted = true
		c.stats.Evictions++
		if l.dirty {
			c.stats.Writebacks++
		}
	}
	set[victim] = line{block: b, valid: true, dirty: dirty, lastUse: c.tick}
	return ev, evicted
}

// Invalidate removes the block if present and returns whether it was dirty.
// Unlike a natural eviction the caller decides what to do with the dirty
// state (a flush instruction writes back; an attack helper may drop it).
func (c *Cache) Invalidate(b arch.BlockID) (wasPresent, wasDirty bool) {
	set, wi := c.find(b)
	if wi < 0 {
		return false, false
	}
	dirty := set[wi].dirty
	set[wi] = line{}
	return true, dirty
}
