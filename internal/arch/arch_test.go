package arch

import (
	"testing"
	"testing/quick"
)

func TestAddressGeometry(t *testing.T) {
	a := Addr(0x12345)
	if a.Block() != BlockID(0x12345>>6) {
		t.Fatal("block mapping")
	}
	if a.Page() != PageID(0x12345>>12) {
		t.Fatal("page mapping")
	}
	if a.Offset() != 0x12345&63 {
		t.Fatal("offset")
	}
}

func TestQuickBlockAddrRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		b := BlockID(raw)
		return b.Addr().Block() == b && b.Addr().Offset() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPageBlockRelations(t *testing.T) {
	f := func(raw uint32, i uint8) bool {
		p := PageID(raw)
		idx := int(i) % BlocksPerPage
		b := p.Block(idx)
		return b.Page() == p && b.Index() == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionPredicates(t *testing.T) {
	if !Addr(100).IsData() || Addr(100).IsCounter() || Addr(100).IsTree() {
		t.Fatal("data region misclassified")
	}
	if !CounterBase.IsCounter() || CounterBase.IsData() || CounterBase.IsTree() {
		t.Fatal("counter region misclassified")
	}
	if !TreeBase.IsTree() || TreeBase.IsCounter() {
		t.Fatal("tree region misclassified")
	}
	if !CounterBase.Block().IsCounter() || !TreeBase.Block().IsTree() {
		t.Fatal("block predicates disagree with address predicates")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds collide immediately")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGStreams(t *testing.T) {
	// One-argument form stays bit-compatible with the historic seeding.
	if got, want := NewRNG(42).Uint64(), (&RNG{state: 42}).Uint64(); got != want {
		t.Fatalf("NewRNG(42) diverges from historic seeding: %d != %d", got, want)
	}
	// Streams are deterministic and distinct per index and per seed.
	if NewRNG(42, 1).Uint64() != NewRNG(42, 1).Uint64() {
		t.Fatal("stream derivation not deterministic")
	}
	seen := map[uint64]bool{NewRNG(42).Uint64(): true}
	for i := uint64(0); i < 64; i++ {
		v := NewRNG(42, i).Uint64()
		if seen[v] {
			t.Fatalf("stream %d collides with an earlier stream", i)
		}
		seen[v] = true
	}
	if NewRNG(42, 7).Uint64() == NewRNG(43, 7).Uint64() {
		t.Fatal("same stream under different seeds collides")
	}
	// Multi-level streams nest: (seed, a, b) differs from (seed, a) and
	// from (seed, b, a).
	if NewRNG(1, 2, 3).Uint64() == NewRNG(1, 2).Uint64() ||
		NewRNG(1, 2, 3).Uint64() == NewRNG(1, 3, 2).Uint64() {
		t.Fatal("nested streams collide")
	}
}
