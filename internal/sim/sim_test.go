package sim

import (
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/cache"
	"metaleak/internal/crypto"
	"metaleak/internal/ctr"
	"metaleak/internal/dram"
	"metaleak/internal/itree"
	"metaleak/internal/secmem"
)

func newSys(t *testing.T, noiseInterval arch.Cycles) *System {
	t.Helper()
	engCfg := crypto.Config{HashLatency: 12}
	mc := secmem.New(secmem.Config{
		DRAM:          dram.DefaultConfig(),
		Meta:          cache.Config{Name: "meta", SizeBytes: 64 * 1024, Ways: 8, HitLatency: 2},
		Engine:        engCfg,
		QueueDelay:    10,
		TreeStepDelay: 30,
	}, ctr.NewSC(ctr.SCConfig{}), itree.NewVTree(itree.VTreeConfig{
		Name: "SCT", Arities: []int{32, 16}, MinorBits: 7, CounterBlocks: 1 << 12,
	}, crypto.New(engCfg)))
	return New(Config{
		Cores:         2,
		L1:            cache.Config{Name: "L1", SizeBytes: 4 * 1024, Ways: 2, HitLatency: 1},
		L2:            cache.Config{Name: "L2", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 10},
		L3:            cache.Config{Name: "L3", SizeBytes: 64 * 1024, Ways: 8, HitLatency: 29},
		SecurePages:   1 << 12,
		NoiseInterval: noiseInterval,
		NoisePages:    8,
		Seed:          1,
	}, mc)
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := newSys(t, 0)
	p := s.AllocPage(0)
	b := p.Block(0)
	var data crypto.Block
	copy(data[:], "hello metadata world")
	s.Write(0, b, data)
	got, _ := s.Read(0, b)
	if got != data {
		t.Fatal("cached round trip failed")
	}
	s.Flush(0, b)
	got, res := s.Read(0, b)
	if got != data {
		t.Fatal("post-flush round trip failed")
	}
	if res.Report.Path == secmem.PathCacheHit {
		t.Fatal("post-flush read did not reach the controller")
	}
}

func TestByteAccessors(t *testing.T) {
	s := newSys(t, 0)
	p := s.AllocPage(0)
	a := p.Addr() + 100
	s.StoreByte(0, a, 0xAB)
	v, _ := s.LoadByte(0, a)
	if v != 0xAB {
		t.Fatalf("byte = %#x", v)
	}
	// Neighbouring byte untouched.
	v2, _ := s.LoadByte(0, a+1)
	if v2 != 0 {
		t.Fatalf("neighbour byte = %#x", v2)
	}
}

func TestExclusiveHierarchySingleCopy(t *testing.T) {
	s := newSys(t, 0)
	p := s.AllocPage(0)
	b := p.Block(0)
	s.Read(0, b)
	c := s.Core(0)
	inL1 := c.l1.Contains(b)
	inL2 := c.l2.Contains(b)
	inL3 := s.l3.Contains(b)
	count := 0
	for _, present := range []bool{inL1, inL2, inL3} {
		if present {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("block present in %d levels, want exactly 1", count)
	}
	if !inL1 {
		t.Fatal("fresh fill not in L1")
	}
}

func TestDirtyDataSurvivesDemotionAndEviction(t *testing.T) {
	s := newSys(t, 0)
	p := s.AllocPage(0)
	b := p.Block(0)
	var data crypto.Block
	data[0] = 0x5A
	s.Write(0, b, data)
	// Thrash: force b all the way out of the hierarchy naturally (the
	// caches total ~84 KiB; a few hundred distinct pages of reads suffice).
	for i := 0; i < 2000; i++ {
		pg := arch.PageID(1024 + i%2048)
		if s.Owner(pg) == -1 {
			if err := s.AllocFrame(0, pg); err != nil {
				t.Fatal(err)
			}
		}
		s.Read(0, pg.Block(i%arch.BlocksPerPage))
	}
	got, _ := s.Read(0, b)
	if got != data {
		t.Fatal("dirty data lost through natural eviction")
	}
	if s.TamperDetections() != 0 {
		t.Fatal("tamper flagged on honest traffic")
	}
}

func TestLatencyBandsOrdered(t *testing.T) {
	s := newSys(t, 0)
	p := s.AllocPage(0)
	b := p.Block(0)
	cold := s.TimedRead(0, b)
	hot := s.TimedRead(0, b)
	s.Flush(0, b)
	warmMeta := s.TimedRead(0, b)
	if !(hot < warmMeta && warmMeta < cold) {
		t.Fatalf("bands not ordered: hot=%d warmMeta=%d cold=%d", hot, warmMeta, cold)
	}
}

func TestOwnershipGuardPanics(t *testing.T) {
	s := newSys(t, 0)
	p := s.AllocPage(0) // owned by core 0
	defer func() {
		if recover() == nil {
			t.Fatal("cross-domain access did not panic")
		}
	}()
	s.Read(1, p.Block(0))
}

func TestAllocFrameConflicts(t *testing.T) {
	s := newSys(t, 0)
	if err := s.AllocFrame(0, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocFrame(1, 42); err == nil {
		t.Fatal("double allocation allowed")
	}
	if err := s.AllocFrame(0, arch.PageID(s.SecurePages())); err == nil {
		t.Fatal("out-of-range frame allowed")
	}
	if s.Owner(42) != 0 || s.Owner(43) != -1 {
		t.Fatal("ownership bookkeeping wrong")
	}
}

func TestWriteThroughCarriesMCReport(t *testing.T) {
	s := newSys(t, 0)
	p := s.AllocPage(0)
	res := s.WriteThrough(0, p.Block(0), crypto.Block{1})
	if res.Report.Path == secmem.PathCacheHit {
		t.Fatal("write-through did not surface the controller report")
	}
	if s.MC().Stats().Writes == 0 {
		t.Fatal("no controller write recorded")
	}
}

func TestWriteThroughSurfacesOverflow(t *testing.T) {
	s := newSys(t, 0)
	p := s.AllocPage(0)
	b := p.Block(0)
	sawOverflow := false
	for i := 0; i < 130; i++ {
		res := s.WriteThrough(0, b, crypto.Block{byte(i)})
		if res.Report.Overflow {
			sawOverflow = true
			if res.Report.Reencrypted == 0 {
				t.Fatal("overflow without re-encryption")
			}
		}
	}
	if !sawOverflow {
		t.Fatal("no encryption counter overflow in 130 write-throughs")
	}
}

func TestNoiseProcessRuns(t *testing.T) {
	s := newSys(t, 500)
	p := s.AllocPage(0)
	for i := 0; i < 200; i++ {
		s.Flush(0, p.Block(i%64))
		s.Read(0, p.Block(i%64))
	}
	// Noise allocated its pages to the last core and must have issued
	// traffic by now.
	if s.Owner(s.noiseBase) != s.noiseCore {
		t.Fatal("noise pages not allocated")
	}
	if s.nextNoise == 500 {
		t.Fatal("noise timer never advanced")
	}
}

func TestIdleAdvancesClock(t *testing.T) {
	s := newSys(t, 0)
	before := s.Now()
	s.Idle(1234)
	if s.Now() != before+1234 {
		t.Fatal("Idle did not advance the clock")
	}
}

func TestFlushPageWritesBackAll(t *testing.T) {
	s := newSys(t, 0)
	p := s.AllocPage(0)
	for i := 0; i < arch.BlocksPerPage; i++ {
		s.Write(0, p.Block(i), crypto.Block{byte(i)})
	}
	writesBefore := s.MC().Stats().Writes
	s.FlushPage(0, p)
	if got := s.MC().Stats().Writes - writesBefore; got != arch.BlocksPerPage {
		t.Fatalf("%d controller writes after page flush, want %d", got, arch.BlocksPerPage)
	}
}

func TestCrossSocketPenalty(t *testing.T) {
	mkSys := func(socketOf []int) *System {
		engCfg := crypto.Config{HashLatency: 12}
		mc := secmem.New(secmem.Config{
			DRAM:          dram.DefaultConfig(),
			Meta:          cache.Config{Name: "meta", SizeBytes: 64 * 1024, Ways: 8, HitLatency: 2},
			Engine:        engCfg,
			QueueDelay:    10,
			TreeStepDelay: 30,
		}, ctr.NewSC(ctr.SCConfig{}), itree.NewVTree(itree.VTreeConfig{
			Name: "SCT", Arities: []int{32, 16}, MinorBits: 7, CounterBlocks: 1 << 12,
		}, crypto.New(engCfg)))
		return New(Config{
			Cores:       2,
			L1:          cache.Config{Name: "L1", SizeBytes: 4 * 1024, Ways: 2, HitLatency: 1},
			L2:          cache.Config{Name: "L2", SizeBytes: 16 * 1024, Ways: 4, HitLatency: 10},
			L3:          cache.Config{Name: "L3", SizeBytes: 64 * 1024, Ways: 8, HitLatency: 29},
			SecurePages: 1 << 12,
			SocketOf:    socketOf,
			Seed:        5,
		}, mc)
	}
	local := mkSys(nil)
	remote := mkSys([]int{0, 1})
	pl := local.AllocPage(1)
	pr := remote.AllocPage(1)
	latLocal := local.TimedRead(1, pl.Block(0))
	latRemote := remote.TimedRead(1, pr.Block(0))
	if latRemote != latLocal+120 {
		t.Fatalf("cross-socket read %d, local %d (want +120)", latRemote, latLocal)
	}
	// L1 hits pay no interconnect cost.
	if h := remote.TimedRead(1, pr.Block(0)); h != 1 {
		t.Fatalf("remote L1 hit cost %d", h)
	}
}

// TestDataViewMatchesEagerView drives seeded Read, Write, StoreByte,
// Touch and Flush sequences over three pages with the noise process on.
// A test-side view stores every block it sees, zero or not, as the
// system's view did before it dropped zero blocks. Every returned
// plaintext, and every payload a flush writes back (read straight from
// the controller), must match it, and no zero block may sit in the
// system's view. Reading blocks no one wrote must add no entries.
func TestDataViewMatchesEagerView(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		s := newSys(t, 500)
		var blocks []arch.BlockID
		for i := 0; i < 3; i++ {
			p := s.AllocPage(0)
			for j := 0; j < arch.BlocksPerPage; j++ {
				blocks = append(blocks, p.Block(j))
			}
		}
		eager := make(map[arch.BlockID]crypto.Block)
		rng := arch.NewRNG(seed)
		for i := 0; i < 5000; i++ {
			b := blocks[rng.Intn(len(blocks))]
			switch rng.Intn(5) {
			case 0:
				if got, _ := s.Read(0, b); got != eager[b] {
					t.Fatalf("seed %d op %d: read %v = %x, want %x", seed, i, b, got, eager[b])
				}
			case 1:
				var v crypto.Block
				if rng.Intn(4) != 0 {
					v[rng.Intn(arch.BlockSize)] = byte(1 + rng.Intn(255))
				}
				s.Write(0, b, v)
				eager[b] = v
			case 2:
				off, v := rng.Intn(arch.BlockSize), byte(rng.Intn(3))
				s.StoreByte(0, b.Addr()+arch.Addr(off), v)
				blk := eager[b]
				blk[off] = v
				eager[b] = blk
			case 3:
				s.Touch(0, b)
				if _, ok := eager[b]; !ok {
					eager[b] = crypto.Block{}
				}
			case 4:
				s.Flush(0, b)
				if got, _ := s.mc.Read(s.now, b); got != eager[b] {
					t.Fatalf("seed %d op %d: written back %v = %x, want %x", seed, i, b, got, eager[b])
				}
			}
		}
		for _, b := range blocks {
			if v, ok := s.data[b]; ok && v == (crypto.Block{}) {
				t.Fatalf("seed %d: zero block %v kept in the view", seed, b)
			}
		}
		n := len(s.data)
		fresh := s.AllocPage(0)
		for j := 0; j < arch.BlocksPerPage; j++ {
			s.Read(0, fresh.Block(j))
			s.Flush(0, fresh.Block(j))
			s.Touch(0, fresh.Block(j))
		}
		if len(s.data) != n {
			t.Fatalf("seed %d: reading untouched blocks grew the view from %d to %d entries", seed, n, len(s.data))
		}
	}
}
