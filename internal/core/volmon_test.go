package core

import (
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/machine"
)

// randRig builds an SCT machine whose metadata cache is MIRAGE-organized
// (small, so volume eviction is affordable in tests).
func randRig(t *testing.T, seed uint64) *machine.System {
	t.Helper()
	dp := machine.ConfigSCT()
	dp.Seed = seed
	dp.SecurePages = 1 << 16
	dp.MetaKB = 16 // 256-block MIRAGE store
	dp.RandomizedMeta = true
	dp.FastCrypto = true
	return machine.NewSystem(dp)
}

func TestRandomizedMetaBlocksConflictEviction(t *testing.T) {
	sys := randRig(t, 60)
	if sys.Ctrl.Meta() != nil {
		t.Fatal("randomized controller still exposes set geometry")
	}
	if sys.Ctrl.Meta() != nil {
		t.Fatal("randomized metadata cache still exposes a set geometry")
	}
	victimPage := sys.AllocPage(1)
	attacker := NewAttacker(sys.System, sys.Ctrl, 0, false)
	if _, err := attacker.NewMonitor(victimPage, 0); err == nil {
		t.Fatal("conflict-based monitor built against randomized metadata cache")
	}
	if _, err := attacker.BuildEvictionSet(arch.CounterBase.Block(), nil); err == nil {
		t.Fatal("eviction set built without set geometry")
	}
}

func TestRandomizedMetaFunctionalityIntact(t *testing.T) {
	sys := randRig(t, 61)
	p := sys.AllocPage(0)
	b := p.Block(0)
	var data [arch.BlockSize]byte
	data[0] = 0x77
	sys.WriteThrough(0, b, data)
	got, res := sys.Read(0, b)
	if got != data || res.Report.Tampered {
		t.Fatal("round trip broken under randomized metadata cache")
	}
	// Integrity still enforced.
	snap := sys.Ctrl.Snapshot(b)
	sys.WriteThrough(0, b, [arch.BlockSize]byte{1})
	sys.Ctrl.TamperReplay(snap)
	sys.Flush(0, b)
	sys.Read(0, b)
	if sys.TamperDetections() == 0 {
		t.Fatal("replay undetected under randomized metadata cache")
	}
}

func TestVolumeMonitorBeatsRandomizedMeta(t *testing.T) {
	sys := randRig(t, 62)
	victimPage := sys.AllocPage(1)
	victimBlock := victimPage.Block(0)
	attacker := NewAttacker(sys.System, sys.Ctrl, 0, false)
	// Volume sized at ~3x the 256-block store: eviction probability per
	// round is high (Fig. 18 scaling).
	m, err := attacker.NewVolumeMonitor(victimPage, 0, 800)
	if err != nil {
		t.Fatal(err)
	}
	hit, miss := m.Calibrate(10)
	if hit >= miss {
		t.Fatalf("volume calibration inverted: %d vs %d", hit, miss)
	}
	correct := 0
	const rounds = 30
	for i := 0; i < rounds; i++ {
		m.Evict()
		want := i%2 == 0
		if want {
			sys.Flush(1, victimBlock)
			sys.Touch(1, victimBlock)
		}
		got, _ := m.Reload()
		if got == want {
			correct++
		}
	}
	if correct < rounds*80/100 {
		t.Fatalf("volume monitor accuracy %d/%d under randomized cache", correct, rounds)
	}
}

func TestVolumeMonitorPoolExhaustion(t *testing.T) {
	dp := machine.ConfigSCT()
	dp.Seed = 63
	dp.SecurePages = 256 // tiny region: pool cannot be built
	dp.TreeArities = []int{32, 8}
	dp.RandomizedMeta = true
	sys := machine.NewSystem(dp)
	victimPage := sys.AllocPage(1)
	attacker := NewAttacker(sys.System, sys.Ctrl, 0, false)
	if _, err := attacker.NewVolumeMonitor(victimPage, 0, 100000); err == nil {
		t.Fatal("expected pool exhaustion error")
	}
}
