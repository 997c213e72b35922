package ctr

import (
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
)

func TestSCIncrementAndFusedValue(t *testing.T) {
	s := NewSC(SCConfig{})
	b := arch.PageID(3).Block(5)
	if v := s.Value(b); v != 0 {
		t.Fatalf("initial value = %d", v)
	}
	v, ov := s.Increment(b)
	if ov != nil {
		t.Fatal("unexpected overflow on first write")
	}
	if v != 1 || s.Value(b) != 1 {
		t.Fatalf("after one write value = %d", v)
	}
	// Another block in the same page shares the major but not the minor.
	b2 := arch.PageID(3).Block(6)
	if s.Value(b2) != 0 {
		t.Fatalf("sibling minor affected: %d", s.Value(b2))
	}
}

func TestSCOverflowReencryptsPage(t *testing.T) {
	s := NewSC(SCConfig{})
	b := arch.PageID(7).Block(0)
	sibling := arch.PageID(7).Block(1)
	s.Increment(sibling) // sibling minor = 1
	oldSibling := s.Value(sibling)
	var ov *Overflow
	for i := uint64(0); i <= s.MinorMax(); i++ {
		_, ov = s.Increment(b)
	}
	if ov == nil {
		t.Fatalf("no overflow after %d writes", s.MinorMax()+1)
	}
	if ov.GroupSize != arch.BlocksPerPage {
		t.Fatalf("group size = %d", ov.GroupSize)
	}
	if len(ov.Reencrypt) != arch.BlocksPerPage-1 {
		t.Fatalf("re-encrypt list = %d", len(ov.Reencrypt))
	}
	// Sibling must appear with its old fused value and its new one.
	found := false
	for _, ch := range ov.Reencrypt {
		if ch.Block == sibling {
			found = true
			if ch.Old != oldSibling {
				t.Fatalf("sibling old value %d != %d", ch.Old, oldSibling)
			}
			if ch.New != s.Value(sibling) {
				t.Fatalf("sibling new value %d != %d", ch.New, s.Value(sibling))
			}
		}
	}
	if !found {
		t.Fatal("sibling missing from re-encryption group")
	}
	// Post-overflow: major advanced, triggering block's minor is 1.
	if s.MinorValue(b) != 1 {
		t.Fatalf("triggering minor = %d", s.MinorValue(b))
	}
	if s.Value(b)>>7 != 1 {
		t.Fatalf("major not incremented: fused=%d", s.Value(b))
	}
}

func TestSCValuesNeverRepeatAcrossOverflow(t *testing.T) {
	// Seed uniqueness (the whole point of counters): the fused value after
	// overflow must never equal any pre-overflow value of that block.
	s := NewSC(SCConfig{})
	b := arch.PageID(1).Block(0)
	seen := map[uint64]bool{s.Value(b): true}
	for i := 0; i < 300; i++ {
		v, _ := s.Increment(b)
		if seen[v] {
			t.Fatalf("fused counter value %d repeated at write %d", v, i)
		}
		seen[v] = true
	}
}

func TestSCBlockBytesPacking(t *testing.T) {
	s := NewSC(SCConfig{})
	p := arch.PageID(9)
	s.Increment(p.Block(0))
	base := s.BlockBytes(s.CounterBlock(p.Block(0)))
	s.Increment(p.Block(63))
	after := s.BlockBytes(s.CounterBlock(p.Block(0)))
	if base == after {
		t.Fatal("BlockBytes insensitive to minor 63")
	}
	// Deterministic.
	if after != s.BlockBytes(s.CounterBlock(p.Block(0))) {
		t.Fatal("BlockBytes not deterministic")
	}
}

func TestSCCounterBlockMapping(t *testing.T) {
	s := NewSC(SCConfig{})
	b := arch.PageID(1234).Block(17)
	cb := s.CounterBlock(b)
	if !cb.IsCounter() {
		t.Fatal("counter block not in counter region")
	}
	if s.PageOfCounterBlock(cb) != 1234 {
		t.Fatal("round trip page mapping failed")
	}
	if s.FanOut() != arch.BlocksPerPage || cb-arch.CounterBase.Block() != 1234 {
		t.Fatal("counter block does not cover exactly its page")
	}
}

// TestSCReadsMaterializeNoPage reads counters of pages no write touched:
// they read as zero and leave no page state behind, and a page's state
// once written reads as before.
func TestSCReadsMaterializeNoPage(t *testing.T) {
	s := NewSC(SCConfig{})
	for p := arch.PageID(0); p < 100; p++ {
		b := p.Block(int(p) % arch.BlocksPerPage)
		if s.Value(b) != 0 || s.MinorValue(b) != 0 || s.BlockBytes(s.CounterBlock(b)) != [arch.BlockSize]byte{} {
			t.Fatalf("untouched page %d reads non-zero counters", p)
		}
	}
	if len(s.pages) != 0 {
		t.Fatalf("reads materialized %d pages", len(s.pages))
	}
	b := arch.PageID(7).Block(3)
	v, _ := s.Increment(b)
	if len(s.pages) != 1 || s.Value(b) != v || s.MinorValue(b) != 1 || s.BlockBytes(s.CounterBlock(b)) == [arch.BlockSize]byte{} {
		t.Fatal("a written page does not read back its counters")
	}
}

func TestMoCIndependentCounters(t *testing.T) {
	m := NewMoC(MoCConfig{Bits: 8})
	b1, b2 := arch.BlockID(0), arch.BlockID(1)
	m.Increment(b1)
	if m.Value(b2) != 0 {
		t.Fatal("MoC counters not independent")
	}
}

func TestMoCOverflowRekeysMemory(t *testing.T) {
	m := NewMoC(MoCConfig{Bits: 4})
	other := arch.BlockID(99)
	m.Increment(other)
	b := arch.BlockID(5)
	var ov *Overflow
	for i := 0; i < 16; i++ {
		_, ov = m.Increment(b)
	}
	if ov == nil {
		t.Fatal("no overflow after 2^4 writes")
	}
	// The other touched block must be in the re-key group with a changed
	// effective seed.
	found := false
	for _, ch := range ov.Reencrypt {
		if ch.Block == other {
			found = true
			if ch.Old == ch.New {
				t.Fatal("re-key did not change seed")
			}
		}
	}
	if !found {
		t.Fatal("whole-memory group missing touched block")
	}
}

func TestGCSharedCounterAdvances(t *testing.T) {
	g := NewGC(GCConfig{Bits: 8})
	b1, b2 := arch.BlockID(1), arch.BlockID(2)
	v1, _ := g.Increment(b1)
	v2, _ := g.Increment(b2)
	if v2 != v1+1 {
		t.Fatalf("global counter not shared: %d then %d", v1, v2)
	}
	if g.Value(b1) != v1 {
		t.Fatal("snapshot lost")
	}
}

func TestGCOverflow(t *testing.T) {
	g := NewGC(GCConfig{Bits: 4})
	a := arch.BlockID(1)
	g.Increment(a)
	oldA := g.Value(a)
	b := arch.BlockID(2)
	var ov *Overflow
	for i := 0; i < 20 && ov == nil; i++ {
		_, ov = g.Increment(b)
	}
	if ov == nil {
		t.Fatal("global counter never overflowed")
	}
	for _, ch := range ov.Reencrypt {
		if ch.Block == a && ch.Old != oldA {
			t.Fatalf("old seed for a = %d want %d", ch.Old, oldA)
		}
	}
	if g.Value(a) == oldA {
		t.Fatal("re-key left a's effective seed unchanged")
	}
}

// Property: for every scheme, Increment yields the value Value then
// reports, and values are strictly fresh (never equal to the immediately
// preceding value of that block).
func TestQuickSchemesFreshness(t *testing.T) {
	schemes := []Scheme{
		NewSC(SCConfig{}),
		NewMoC(MoCConfig{Bits: 16}),
		NewGC(GCConfig{Bits: 20}),
	}
	for _, s := range schemes {
		s := s
		f := func(raw uint16) bool {
			b := arch.BlockID(raw)
			before := s.Value(b)
			v, _ := s.Increment(b)
			return v == s.Value(b) && v != before
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

// Property: FanOut is the reverse of CounterBlock for all schemes — the
// counter block of data block b is CounterBase.Block()+i exactly when b
// lies in [i·FanOut, (i+1)·FanOut), and those blocks share b's page.
func TestQuickCounterBlockRoundTrip(t *testing.T) {
	schemes := []Scheme{NewSC(SCConfig{}), NewMoC(MoCConfig{}), NewGC(GCConfig{})}
	for _, s := range schemes {
		s := s
		fan := arch.BlockID(s.FanOut())
		f := func(raw uint32) bool {
			b := arch.BlockID(raw)
			cb := s.CounterBlock(b)
			first := (cb - arch.CounterBase.Block()) * fan
			last := first + fan - 1
			if b < first || b > last || first.Page() != last.Page() {
				return false
			}
			if s.CounterBlock(first) != cb || s.CounterBlock(last) != cb || s.CounterBlock(last+1) == cb {
				return false
			}
			return first == 0 || s.CounterBlock(first-1) != cb
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}
