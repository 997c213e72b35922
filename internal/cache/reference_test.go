package cache

import (
	"fmt"
	"testing"

	"metaleak/internal/arch"
)

// refCache is the eager LRU cache that set storage filled on first
// Insert replaced: every way of every set exists from construction. It
// is the differential test's reference for hits, victims, dirtiness and
// statistics.
type refCache struct {
	sets  [][]line
	tick  uint64
	stats Stats
}

func newRef(cfg Config) *refCache {
	sets := make([][]line, cfg.Sets())
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &refCache{sets: sets}
}

func (c *refCache) find(b arch.BlockID) (int, int) {
	si := int(uint64(b) & uint64(len(c.sets)-1))
	for wi := range c.sets[si] {
		if c.sets[si][wi].valid && c.sets[si][wi].block == b {
			return si, wi
		}
	}
	return si, -1
}

func (c *refCache) Contains(b arch.BlockID) bool {
	_, wi := c.find(b)
	return wi >= 0
}

func (c *refCache) Access(b arch.BlockID, write bool) bool {
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

func (c *refCache) Insert(b arch.BlockID, dirty bool) (Eviction, bool) {
	si, wi := c.find(b)
	c.tick++
	if wi >= 0 {
		c.sets[si][wi].lastUse = c.tick
		c.sets[si][wi].dirty = c.sets[si][wi].dirty || dirty
		return Eviction{}, false
	}
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
		victim = 0
		for i := 1; i < len(c.sets[si]); i++ {
			if c.sets[si][i].lastUse < c.sets[si][victim].lastUse {
				victim = i
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

func (c *refCache) Invalidate(b arch.BlockID) (bool, bool) {
	si, wi := c.find(b)
	if wi < 0 {
		return false, false
	}
	dirty := c.sets[si][wi].dirty
	c.sets[si][wi] = line{}
	return true, dirty
}

// result is everything one operation reports.
type result struct {
	hit, evicted, present, dirty bool
	ev                           Eviction
}

// TestMatchesEagerReference drives Cache and the eager reference
// through the same seeded Access/Insert/Invalidate/Contains sequences
// and requires every result and the statistics to agree after each
// operation. The geometries are the machine's L1, L2, L3 and metadata
// cache plus a direct-mapped one; the "hot" block streams confine
// themselves to three sets and overfill them, the "wide" ones fill sets
// across many chunks.
func TestMatchesEagerReference(t *testing.T) {
	geometries := []Config{
		{Name: "L1", SizeBytes: 32 * 1024, Ways: 8},
		{Name: "L2", SizeBytes: 1024 * 1024, Ways: 4},
		{Name: "L3", SizeBytes: 8 * 1024 * 1024, Ways: 16},
		{Name: "meta", SizeBytes: 256 * 1024, Ways: 8},
		{Name: "1-way", SizeBytes: 16 * 64, Ways: 1},
	}
	const ops = 30000
	for _, cfg := range geometries {
		sets := cfg.Sets()
		streams := []struct {
			name string
			next func(*arch.RNG) arch.BlockID
		}{
			{"hot", func(r *arch.RNG) arch.BlockID { return arch.BlockID(r.Intn(3) + sets*r.Intn(2*cfg.Ways)) }},
			{"wide", func(r *arch.RNG) arch.BlockID { return arch.BlockID(r.Intn(4 * sets * cfg.Ways)) }},
		}
		for _, stream := range streams {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", cfg.Name, stream.name, seed), func(t *testing.T) {
					c, ref := New(cfg), newRef(cfg)
					rng := arch.NewRNG(seed, 0xCAC4E)
					for i := 0; i < ops; i++ {
						b := stream.next(rng)
						var got, want result
						switch op := rng.Intn(8); {
						case op < 3:
							write := rng.Intn(2) == 0
							got.hit, want.hit = c.Access(b, write), ref.Access(b, write)
						case op < 6:
							dirty := rng.Intn(2) == 0
							got.ev, got.evicted = c.Insert(b, dirty)
							want.ev, want.evicted = ref.Insert(b, dirty)
						case op < 7:
							got.present, got.dirty = c.Invalidate(b)
							want.present, want.dirty = ref.Invalidate(b)
						default:
							got.present, want.present = c.Contains(b), ref.Contains(b)
						}
						if got != want {
							t.Fatalf("op %d on block %d: got %+v, reference %+v", i, b, got, want)
						}
						if c.Stats() != ref.stats {
							t.Fatalf("op %d on block %d: stats %+v, reference %+v", i, b, c.Stats(), ref.stats)
						}
					}
				})
			}
		}
	}
}
