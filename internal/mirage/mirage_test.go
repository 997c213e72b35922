package mirage

import (
	"testing"

	"metaleak/internal/arch"
)

func TestHitAfterInstall(t *testing.T) {
	c := New(DefaultConfig())
	b := arch.BlockID(42)
	if c.Access(b) {
		t.Fatal("cold access hit")
	}
	if !c.Access(b) {
		t.Fatal("warm access missed")
	}
}

func TestOccupancyBounded(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	for i := 0; i < 3*cfg.DataBlocks; i++ {
		c.Access(arch.BlockID(i))
		if c.Occupancy() > cfg.DataBlocks {
			t.Fatalf("occupancy %d exceeds data store %d", c.Occupancy(), cfg.DataBlocks)
		}
	}
	if c.Occupancy() != cfg.DataBlocks {
		t.Fatalf("steady-state occupancy %d", c.Occupancy())
	}
}

func TestGlobalEvictionsNotSetEvictions(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	for i := 0; i < 4*cfg.DataBlocks; i++ {
		c.Access(arch.BlockID(i))
	}
	s := c.Stats()
	if s.GlobalEvictions == 0 {
		t.Fatal("no global evictions under pressure")
	}
	// With 6 extra ways per skew, SAE must be (essentially) absent.
	if s.SetEvictions > s.GlobalEvictions/100 {
		t.Fatalf("too many set evictions: %d vs %d global", s.SetEvictions, s.GlobalEvictions)
	}
}

func TestRandomEvictionEventuallyRemovesTarget(t *testing.T) {
	// The core of the paper's Fig. 18 argument: flushing a target out of
	// MIRAGE requires only enough random accesses.
	cfg := DefaultConfig()
	cfg.Seed = 1
	c := New(cfg)
	target := arch.BlockID(1 << 30)
	// Warm the cache to steady state.
	for i := 0; i < 2*cfg.DataBlocks; i++ {
		c.Access(arch.BlockID(i))
	}
	c.Access(target)
	n := 0
	for c.Contains(target) && n < 100*cfg.DataBlocks {
		n++
		c.Access(arch.BlockID(1000000 + n))
	}
	if c.Contains(target) {
		t.Fatal("target never evicted by random accesses")
	}
	if n < 100 {
		t.Fatalf("target evicted suspiciously fast (%d accesses)", n)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, bool) {
		cfg := DefaultConfig()
		cfg.Seed = 7
		c := New(cfg)
		for i := 0; i < 2*cfg.DataBlocks; i++ {
			c.Access(arch.BlockID(i * 3))
		}
		return c.Stats().GlobalEvictions, c.Contains(arch.BlockID(0))
	}
	g1, r1 := run()
	g2, r2 := run()
	if g1 != g2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", g1, r1, g2, r2)
	}
}

func TestSkewIndicesDiffer(t *testing.T) {
	c := New(DefaultConfig())
	same := 0
	for i := 0; i < 1000; i++ {
		if c.setIndex(0, arch.BlockID(i)) == c.setIndex(1, arch.BlockID(i)) {
			same++
		}
	}
	// Two independent keyed mappings should collide ~1/Sets of the time.
	if same > 30 {
		t.Fatalf("skew mappings too correlated: %d/1000 collisions", same)
	}
}

func TestMetaCacheDutyCycle(t *testing.T) {
	// The AccessW/InsertReport/Invalidate surface the secure memory
	// controller drives when MIRAGE serves as the metadata cache.
	c := New(DefaultConfig())
	b := arch.BlockID(10)
	if c.AccessW(b, false) {
		t.Fatal("cold AccessW hit")
	}
	if ev, had := c.InsertReport(b, false); had {
		t.Fatalf("insert into empty cache evicted %v", ev)
	}
	if !c.AccessW(b, true) { // write hit marks dirty
		t.Fatal("warm AccessW missed")
	}
	present, dirty := c.Invalidate(b)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Contains(b) {
		t.Fatal("block survived invalidation")
	}
	if p, d := c.Invalidate(b); p || d {
		t.Fatal("double invalidation reported presence")
	}
}

func TestInsertReportSurfacesDirtyEvictions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataBlocks = 64
	cfg.Sets = 8
	cfg.Seed = 3
	c := New(cfg)
	// Fill with dirty lines.
	for i := 0; i < cfg.DataBlocks; i++ {
		c.InsertReport(arch.BlockID(i), true)
	}
	// Further inserts must evict and report the dirtiness.
	sawDirty := false
	for i := 0; i < 50; i++ {
		ev, had := c.InsertReport(arch.BlockID(1000+i), false)
		if had && ev.Dirty {
			sawDirty = true
			if c.Contains(ev.Block) {
				t.Fatal("evicted block still resident")
			}
		}
	}
	if !sawDirty {
		t.Fatal("no dirty eviction reported under pressure")
	}
}

func TestInsertReportIdempotentOnResident(t *testing.T) {
	c := New(DefaultConfig())
	b := arch.BlockID(5)
	c.InsertReport(b, false)
	if _, had := c.InsertReport(b, true); had {
		t.Fatal("re-insert evicted")
	}
	// The dirty flag from the re-insert must stick.
	_, dirty := c.Invalidate(b)
	if !dirty {
		t.Fatal("re-insert lost dirty flag")
	}
}

// Stats is the tests' probe of the counters: a snapshot.
func (c *Cache) Stats() Stats { return c.stats }

// Occupancy is the tests' probe of fill: the number of resident blocks.
func (c *Cache) Occupancy() int { return len(c.order) }
