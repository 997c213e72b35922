package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/dram"
	"metaleak/internal/machine"
	"metaleak/internal/secmem"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// overflowState is everything a tree-counter overflow can move in the
// simulated machine: controller and DRAM counters, every bank's busy
// horizon, and the clock.
type overflowState struct {
	Probes   []int
	Secmem   secmem.Stats
	DRAM     dram.Stats
	BankBusy []arch.Cycles
	Now      arch.Cycles
}

func captureOverflowState(sys *machine.System, probes []int) overflowState {
	d := sys.Ctrl.DRAM()
	st := overflowState{Probes: probes, Secmem: sys.Ctrl.Stats(), DRAM: d.Stats(), Now: sys.Now()}
	for b := 0; b < d.Config().Banks(); b++ {
		st.BankBusy = append(st.BankBusy, d.BankBusyUntil(b))
	}
	return st
}

// counterLeakOverflows drives fig15c's MetaLeak-C monitor (SCT, fast
// crypto, the victim's L1 node as the shared child) through calibration
// and mPreset/mOverflow rounds, with a victim write in every other round.
func counterLeakOverflows(t *testing.T) overflowState {
	dp := machine.ConfigSCT()
	dp.Seed = 1 + 152
	dp.FastCrypto = true
	sys := machine.NewSystem(dp)
	a := NewAttacker(sys.System, sys.Ctrl, 0, false)
	frames, err := a.PlaceVictimPages(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rBlock := frames[0].Block(0)
	cm, err := a.NewCounterMonitor(frames[0], 1, rBlock)
	if err != nil {
		t.Fatal(err)
	}
	cm.Calibrate()
	var probes []int
	for round := 0; round < 4; round++ {
		cm.Preset(cm.MinorMax() - 1)
		if round%2 == 0 {
			sys.WriteThrough(1, rBlock, [arch.BlockSize]byte{byte(round + 1)})
		}
		cm.PropagateVictim(rBlock)
		m, err := cm.ProbeOverflow(4)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, m)
	}
	return captureOverflowState(sys, probes)
}

// isolatedOverflows drives a counter monitor inside one domain of the
// §IX-C per-domain forest, so every overflow goes through Partitioned.
func isolatedOverflows(t *testing.T) overflowState {
	dp := machine.ConfigSCT()
	dp.Seed = 61
	dp.SecurePages = 1 << 16
	dp.IsolatedDomains = 4
	sys := machine.NewSystem(dp)
	a := NewAttacker(sys.System, sys.Ctrl, 0, true)
	cm, err := a.NewCounterMonitor(sys.AllocPage(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	cm.Calibrate()
	var probes []int
	for round := 0; round < 3; round++ {
		cm.Preset(cm.MinorMax() - uint64(round))
		m, err := cm.ProbeOverflow(4)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, m)
	}
	return captureOverflowState(sys, probes)
}

// nestedOverflows nests overflows at different levels over the same
// leaves: one page's leaf minor, then the minor its L1 ancestor holds for
// that leaf, then the leaf again, then the L2 ancestor's minor for the
// L1 node, the leaf, the L1 ancestor and the leaf once more. Every phase
// ends with verified reads of the page under evicted metadata, so a
// reset that leaves a node or a counter hash out of date shows as a
// tamper detection or a changed fetch count.
func nestedOverflows(t *testing.T) overflowState {
	dp := machine.ConfigSCT()
	dp.Seed = 29
	dp.FastCrypto = true
	sys := machine.NewSystem(dp)
	a := NewAttacker(sys.System, sys.Ctrl, 0, false)
	// A page whose counter block and L0–L3 nodes have distinct indices
	// modulo the metadata cache's sets: at page 0 they share one set, so
	// every bump writes back the whole chain and the overflows cascade up
	// to L4 instead of nesting at L0, L1 and L2.
	page := arch.PageID(1 + 32*(2+16*(3+16*(4+16*5))))
	if err := a.ClaimFrame(page); err != nil {
		t.Fatal(err)
	}
	leaf, err := a.NewCounterMonitor(page, -1)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := a.NewCounterMonitor(page, 0)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := a.NewCounterMonitor(page, 1)
	if err != nil {
		t.Fatal(err)
	}
	// readPage evicts the page's counter block and leaf node through the
	// monitors' own eviction plans, then reads the page back, so the
	// reads fetch and verify both.
	readPage := func() {
		leaf.pagePlans[page].run(a)
		l1.childPlan.run(a)
		for i := 0; i < arch.BlocksPerPage; i += 16 {
			sys.Flush(0, page.Block(i))
			sys.Read(0, page.Block(i))
		}
	}
	var probes []int
	probeLeaf := func() {
		leaf.Preset(leaf.MinorMax() - 1)
		readPage()
		m, err := leaf.ProbeOverflow(8)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, m)
		readPage()
	}
	leaf.Calibrate()
	readPage()
	l1.Calibrate()
	readPage()
	probeLeaf()
	l2.Calibrate()
	readPage()
	probeLeaf()
	l1.Calibrate()
	readPage()
	probeLeaf()
	return captureOverflowState(sys, probes)
}

// TestOverflowPathGolden pins the simulated fallout of tree-counter
// overflows — controller and DRAM statistics, bank busy horizons and the
// clock — to a recorded golden, so a change to the re-hash burst that
// drifts by one cycle or one row hit fails here. Regenerate with -update
// only after auditing why the simulation changed.
func TestOverflowPathGolden(t *testing.T) {
	got := map[string]overflowState{
		"sct-fastcrypto": counterLeakOverflows(t),
		"isolated":       isolatedOverflows(t),
		"nested":         nestedOverflows(t),
	}
	for name, st := range got {
		if st.Secmem.TreeOverflows == 0 {
			t.Fatalf("%s: no tree-counter overflow reached", name)
		}
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.Join("testdata", "overflow_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("overflow path drifted from %s:\ngot:\n%s", path, out)
	}
}
