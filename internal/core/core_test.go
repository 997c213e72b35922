package core

import (
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/cache"
	"metaleak/internal/crypto"
	"metaleak/internal/ctr"
	"metaleak/internal/dram"
	"metaleak/internal/itree"
	"metaleak/internal/secmem"
	"metaleak/internal/sim"
)

// rig is a small SCT machine for attack tests: 64K secure pages, the
// Table I metadata cache, four cores.
type rig struct {
	sys *sim.System
	mc  *secmem.Controller
}

func newRig(t *testing.T, seed uint64, noiseInterval int) *rig {
	t.Helper()
	return newRigTree(t, seed, noiseInterval, "SCT")
}

func newRigTree(t *testing.T, seed uint64, noiseInterval int, kind string) *rig {
	t.Helper()
	engCfg := crypto.Config{HashLatency: 12}
	h := crypto.New(engCfg)
	pages := 1 << 16
	var tree itree.Tree
	var scheme ctr.Scheme
	switch kind {
	case "SCT":
		scheme = ctr.NewSC(ctr.SCConfig{})
		tree = itree.NewVTree(itree.VTreeConfig{
			Name: "SCT", Arities: []int{32, 16, 16, 16}, MinorBits: 7, CounterBlocks: pages,
		}, h)
	case "SIT":
		scheme = ctr.NewMoC(ctr.MoCConfig{Bits: 56})
		tree = itree.NewVTree(itree.VTreeConfig{
			Name: "SIT", Arities: []int{8, 8, 8}, MinorBits: 56, CounterBlocks: pages * 8,
		}, h)
	default:
		t.Fatalf("unknown tree kind %s", kind)
	}
	// SIT rigs use the slower SGX-like per-level walk serialization
	// (Fig. 7: ~130 cycles/level on hardware).
	step := arch.Cycles(30)
	if kind == "SIT" {
		step = 90
	}
	mc := secmem.New(secmem.Config{
		DRAM:          dram.DefaultConfig(),
		Meta:          cache.Config{Name: "meta", SizeBytes: 256 * 1024, Ways: 8, HitLatency: 2},
		Engine:        engCfg,
		QueueDelay:    10,
		TreeStepDelay: step,
	}, scheme, tree)
	sys := sim.New(sim.Config{
		Cores:         4,
		L1:            cache.Config{Name: "L1", SizeBytes: 32 * 1024, Ways: 8, HitLatency: 1},
		L2:            cache.Config{Name: "L2", SizeBytes: 1 << 20, Ways: 4, HitLatency: 10},
		L3:            cache.Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, HitLatency: 29},
		SecurePages:   pages,
		NoiseInterval: arch.Cycles(noiseInterval),
		NoisePages:    256,
		Seed:          seed,
	}, mc)
	return &rig{sys: sys, mc: mc}
}

// victim allocates a page for a pseudo-victim on the given core and
// returns a function that performs one secret-dependent access.
func (r *rig) victim(core int) (arch.PageID, func()) {
	p := r.sys.AllocPage(core)
	b := p.Block(0)
	return p, func() {
		r.sys.Flush(core, b) // cache cleansing per the threat model
		r.sys.Touch(core, b)
	}
}

func TestFramesUnderShareNode(t *testing.T) {
	r := newRig(t, 1, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	vp := r.sys.AllocPage(1)
	for level := 0; level < 3; level++ {
		ns := a.NodeOfPage(vp, level)
		frames := a.FramesUnder(ns, 10)
		if len(frames) == 0 {
			t.Fatalf("level %d: no frames", level)
		}
		for _, f := range frames {
			if a.NodeOfPage(f, level) != ns {
				t.Fatalf("level %d: frame %d not under %v", level, f, ns)
			}
		}
	}
}

func TestEvictionSetEvictsTarget(t *testing.T) {
	r := newRig(t, 2, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	// Target: the counter block of an attacker scratch page, loaded first.
	p := r.sys.AllocPage(0)
	b := p.Block(0)
	r.sys.Touch(0, b)
	cb := r.mc.Counters().CounterBlock(b)
	if !r.mc.Meta().Contains(cb) {
		t.Fatal("counter block not cached after touch")
	}
	es, err := a.BuildEvictionSet(cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Warm(es)
	// Re-load the target, then evict it.
	r.sys.Flush(0, b)
	r.sys.Touch(0, b)
	a.RunEviction(es)
	if r.mc.Meta().Contains(cb) {
		t.Fatal("eviction set failed to evict target counter block")
	}
}

func TestMonitorDetectsVictimAccessLeafLevel(t *testing.T) {
	r := newRig(t, 3, 0)
	vp, access := r.victim(1)
	a := NewAttacker(r.sys, r.mc, 0, false)
	m, err := a.NewMonitor(vp, 0)
	if err != nil {
		t.Fatal(err)
	}
	hitMean, missMean := m.Calibrate(12)
	if hitMean >= missMean {
		t.Fatalf("calibration inverted: hit=%d miss=%d", hitMean, missMean)
	}
	// 40 rounds alternating victim access / idle; noiseless run must be
	// perfectly classified.
	for i := 0; i < 40; i++ {
		m.Evict()
		want := i%2 == 0
		if want {
			access()
		}
		got, lat := m.Reload()
		if got != want {
			t.Fatalf("round %d: classified %v want %v (lat %d, thr %d)", i, got, want, lat, m.Threshold)
		}
	}
}

func TestMonitorLevelOne(t *testing.T) {
	r := newRig(t, 4, 0)
	vp, access := r.victim(1)
	a := NewAttacker(r.sys, r.mc, 0, false)
	m, err := a.NewMonitor(vp, 1)
	if err != nil {
		t.Fatal(err)
	}
	hit, miss := m.Calibrate(10)
	if hit >= miss {
		t.Fatalf("level-1 calibration inverted: %d vs %d", hit, miss)
	}
	errs := 0
	for i := 0; i < 30; i++ {
		m.Evict()
		want := i%3 == 0
		if want {
			access()
		}
		got, _ := m.Reload()
		if got != want {
			errs++
		}
	}
	if errs > 1 {
		t.Fatalf("%d/30 misclassifications at level 1", errs)
	}
}

func TestMonitorSITLevelOne(t *testing.T) {
	// The SGX configuration of §VIII-B: L1 sharing (L0 covers one page and
	// cannot be shared).
	r := newRigTree(t, 5, 0, "SIT")
	vp, access := r.victim(1)
	a := NewAttacker(r.sys, r.mc, 0, true)
	m, err := a.NewMonitor(vp, 1)
	if err != nil {
		t.Fatal(err)
	}
	hit, miss := m.Calibrate(10)
	if hit >= miss {
		t.Fatalf("SIT calibration inverted: %d vs %d", hit, miss)
	}
	errs := 0
	for i := 0; i < 30; i++ {
		m.Evict()
		want := i%2 == 1
		if want {
			access()
		}
		got, _ := m.Reload()
		if got != want {
			errs++
		}
	}
	if errs > 1 {
		t.Fatalf("%d/30 misclassifications on SIT", errs)
	}
}

func TestMonitorUnderNoise(t *testing.T) {
	r := newRig(t, 6, 20000)
	vp, access := r.victim(1)
	a := NewAttacker(r.sys, r.mc, 0, false)
	m, err := a.NewMonitor(vp, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Calibrate(12)
	correct := 0
	const rounds = 100
	for i := 0; i < rounds; i++ {
		m.Evict()
		want := i%2 == 0
		if want {
			access()
		}
		got, _ := m.Reload()
		if got == want {
			correct++
		}
	}
	if correct < rounds*85/100 {
		t.Fatalf("accuracy %d%% under noise, want >= 85%%", correct*100/rounds)
	}
}

func TestMonitorNeverTouchesVictimMemory(t *testing.T) {
	// The ownership guard in sim panics on cross-domain access; a full
	// monitor lifecycle must not trip it.
	r := newRig(t, 7, 0)
	vp, access := r.victim(1)
	a := NewAttacker(r.sys, r.mc, 0, false)
	m, err := a.NewMonitor(vp, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Calibrate(5)
	for i := 0; i < 10; i++ {
		m.Evict()
		access()
		m.Reload()
	}
	// Ownership still intact: the victim page belongs to core 1.
	if r.sys.Owner(vp) != 1 {
		t.Fatal("victim page ownership changed")
	}
}

func TestFlushWriteQueueDrains(t *testing.T) {
	r := newRig(t, 8, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	p := r.sys.AllocPage(0)
	for i := 0; i < 10; i++ {
		r.sys.WriteThrough(0, p.Block(i), [arch.BlockSize]byte{1})
	}
	before := r.mc.DRAM().Stats().Drains
	a.FlushWriteQueue()
	if r.mc.DRAM().Stats().Drains == before {
		t.Fatal("no forced drains during write-queue flush")
	}
}

func TestProbeLevelsFindsSignalEverywhere(t *testing.T) {
	r := newRig(t, 80, 0)
	vp := r.sys.AllocPage(1)
	a := NewAttacker(r.sys, r.mc, 0, false)
	reports := a.ProbeLevels(vp, 6)
	if len(reports) != r.mc.Tree().StoredLevels() {
		t.Fatalf("%d reports", len(reports))
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("level %d: %v", rep.Level, rep.Err)
		}
		if rep.Gap <= 0 {
			t.Fatalf("level %d: no signal (gap %d)", rep.Level, rep.Gap)
		}
	}
}

func TestProbeLevelsUnderIsolationReportsErrors(t *testing.T) {
	sys := isoRig(t, 81)
	vp := sys.AllocPage(1)
	a := NewAttacker(sys.System, sys.Ctrl, 0, true)
	for _, rep := range a.ProbeLevels(vp, 4) {
		if rep.Err == nil {
			t.Fatalf("level %d: monitor built despite isolation", rep.Level)
		}
	}
}
