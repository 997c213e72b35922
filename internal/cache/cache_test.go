package cache

import (
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
)

func mk(t *testing.T, size, ways int) *Cache {
	t.Helper()
	return New(Config{Name: "t", SizeBytes: size, Ways: ways, HitLatency: 1})
}

func TestMissThenHit(t *testing.T) {
	c := mk(t, 8*64, 2)
	b := arch.BlockID(5)
	if c.Access(b, false) {
		t.Fatal("cold access hit")
	}
	c.Insert(b, false)
	if !c.Access(b, false) {
		t.Fatal("warm access missed")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 1 set, 2 ways.
	c := mk(t, 2*64, 2)
	a, b, d := arch.BlockID(0), arch.BlockID(1), arch.BlockID(2)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Access(a, false) // a more recent than b
	ev, had := c.Insert(d, false)
	if !had || ev.Block != b {
		t.Fatalf("expected b evicted, got %+v had=%v", ev, had)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := mk(t, 1*64, 1)
	c.Insert(arch.BlockID(1), true)
	ev, had := c.Insert(arch.BlockID(2), false)
	if !had || !ev.Dirty || ev.Block != 1 {
		t.Fatalf("dirty eviction not reported: %+v", ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writeback count = %d", c.Stats().Writebacks)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := mk(t, 1*64, 1)
	c.Insert(arch.BlockID(1), false)
	c.Access(arch.BlockID(1), true)
	_, dirty := c.Invalidate(arch.BlockID(1))
	if !dirty {
		t.Fatal("write hit did not mark line dirty")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := mk(t, 2*64, 2)
	c.Insert(arch.BlockID(0), false)
	c.Insert(arch.BlockID(1), false)
	// Re-inserting 0 must not evict and must refresh LRU position.
	if _, had := c.Insert(arch.BlockID(0), true); had {
		t.Fatal("re-insert evicted")
	}
	ev, _ := c.Insert(arch.BlockID(2), false)
	if ev.Block != 1 {
		t.Fatalf("expected 1 evicted, got %d", ev.Block)
	}
	// The refreshed line must have merged the dirty flag.
	_, dirty := c.Invalidate(arch.BlockID(0))
	if !dirty {
		t.Fatal("re-insert lost dirty flag")
	}
}

func TestSetIndexDistinctSets(t *testing.T) {
	c := mk(t, 4*64, 1) // 4 sets, direct mapped
	// Blocks 0..3 map to different sets; inserting all must evict none.
	for i := 0; i < 4; i++ {
		if _, had := c.Insert(arch.BlockID(i), false); had {
			t.Fatalf("block %d caused eviction", i)
		}
	}
	// Block 4 collides with block 0.
	ev, had := c.Insert(arch.BlockID(4), false)
	if !had || ev.Block != 0 {
		t.Fatalf("expected block 0 evicted, got %+v", ev)
	}
}

// Property: occupancy never exceeds associativity and a just-inserted
// block is always resident.
func TestQuickOccupancyInvariant(t *testing.T) {
	c := mk(t, 64*64, 8)
	f := func(blocks []uint16) bool {
		for _, raw := range blocks {
			b := arch.BlockID(raw)
			c.Insert(b, raw%3 == 0)
			if !c.Contains(b) {
				return false
			}
			if c.Occupancy(b) > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: an eviction set of `ways` distinct conflicting blocks always
// evicts the target under LRU — the primitive mEvict relies on.
func TestQuickEvictionSetAlwaysEvicts(t *testing.T) {
	f := func(seed uint8) bool {
		c := mk(t, 128*64, 8) // 16 sets
		target := arch.BlockID(seed)
		c.Insert(target, false)
		set := c.SetIndex(target)
		// 8 distinct conflicting blocks (same set, different tags).
		for i := 1; i <= 8; i++ {
			b := target + arch.BlockID(16*i)
			if c.SetIndex(b) != set {
				return false
			}
			c.Insert(b, false)
		}
		return !c.Contains(target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two sets")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 3 * 64, Ways: 1, HitLatency: 1})
}

func TestNewRejectsNonDivisibleGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-divisible geometry")
		}
	}()
	// 24 KiB + 64 B over 3 ways truncates to a power-of-two set count
	// (128) while silently dropping capacity; it must be rejected loudly.
	New(Config{Name: "bad", SizeBytes: 24*1024 + 64, Ways: 3})
}

// Occupancy is the tests' probe of set fill: the number of valid lines
// in the set the given block maps to.
func (c *Cache) Occupancy(b arch.BlockID) int {
	si := c.SetIndex(b)
	n := 0
	for _, l := range c.lines(si) {
		if l.valid {
			n++
		}
	}
	return n
}
