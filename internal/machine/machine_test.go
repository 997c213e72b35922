package machine

import (
	"fmt"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/secmem"
)

func TestConfigDefaults(t *testing.T) {
	for _, dp := range []DesignPoint{ConfigSCT(), ConfigHT(), ConfigSGX()} {
		sys := NewSystem(dp)
		if sys.Ctrl == nil || sys.System == nil {
			t.Fatalf("%s: incomplete system", dp.Name)
		}
		if sys.DP.Name != dp.Name {
			t.Fatalf("design point not preserved")
		}
	}
}

func TestSCTGeometryMatchesTableI(t *testing.T) {
	sys := NewSystem(ConfigSCT())
	tree := sys.Ctrl.Tree()
	if tree.Name() != "SCT" || tree.StoredLevels() != 6 {
		t.Fatalf("tree %s with %d levels", tree.Name(), tree.StoredLevels())
	}
	if tree.Arity(0) != 32 || tree.Arity(1) != 16 {
		t.Fatal("arities not 32-ary L0 / 16-ary L1+")
	}
	// One counter block per page over 64 GiB.
	if tree.CounterBlockCapacity() != 1<<24 {
		t.Fatalf("counter blocks = %d", tree.CounterBlockCapacity())
	}
	if sys.Ctrl.Counters().Name() != "SC" {
		t.Fatal("encryption scheme not SC")
	}
}

func TestSGXGeometryMatchesTableI(t *testing.T) {
	sys := NewSystem(ConfigSGX())
	tree := sys.Ctrl.Tree()
	if tree.Name() != "SIT" || tree.StoredLevels() != 3 {
		t.Fatalf("tree %s with %d stored levels", tree.Name(), tree.StoredLevels())
	}
	// L0 node covers one page: 8 counter blocks of 8 counters each.
	if tree.CoverageCounterBlocks(0) != 8 {
		t.Fatalf("L0 coverage = %d counter blocks", tree.CoverageCounterBlocks(0))
	}
	if sys.Ctrl.Counters().Name() != "MoC" {
		t.Fatal("encryption scheme not MoC")
	}
	// The §VIII-B page-group property: pages p and p+7 share L1; p and p+8
	// do not.
	cb := func(p arch.PageID) arch.BlockID { return sys.Ctrl.Counters().CounterBlock(p.Block(0)) }
	l1 := func(p arch.PageID) int { return tree.Path(cb(p))[1].Index }
	if l1(0) != l1(7) || l1(0) == l1(8) {
		t.Fatal("SIT 8-page L1 grouping violated")
	}
}

func TestGCBitsPlumbed(t *testing.T) {
	dp := ConfigSCT()
	dp.Counter = CounterGC
	dp.GCBits = 4
	dp.SecurePages = 1 << 12
	sys := NewSystem(dp)
	p := sys.AllocPage(0)
	overflowed := false
	for i := 0; i < 40 && !overflowed; i++ {
		res := sys.WriteThrough(0, p.Block(0), [arch.BlockSize]byte{byte(i)})
		overflowed = res.Report.Overflow
	}
	if !overflowed {
		t.Fatal("4-bit global counter never overflowed in 40 writes")
	}
}

// TestZeroFieldsFailLoudly: NewSystem applies no defaults, so a zero
// or empty structural field panics instead of building another machine.
func TestZeroFieldsFailLoudly(t *testing.T) {
	for _, set := range []string{"Cores=0", "SecurePages=0", "MetaKB=0",
		"TreeArities=", "Counter=", "Tree=", "MinorBits=0", "NoisePages=0"} {
		dp := ConfigSCT()
		dp.SecurePages = 1 << 12
		dp.NoiseInterval = 2000
		ov, err := ParseOverride(set)
		if err != nil {
			t.Fatal(err)
		}
		if err := ov.Apply(&dp); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSystem accepted %s", set)
				}
			}()
			NewSystem(dp)
		}()
	}
}

// TestSGXSelectsCalibration: the SGX flag alone moves every
// calibrated latency, on an otherwise unchanged design point.
func TestSGXSelectsCalibration(t *testing.T) {
	cold := func(dp DesignPoint) arch.Cycles {
		dp.SecurePages = 1 << 12
		sys := NewSystem(dp)
		_, res := sys.Read(0, sys.AllocPage(0).Block(0))
		return res.Latency
	}
	sim, sgx := ConfigSCT(), ConfigSCT()
	sgx.SGX = true
	if a, b := cold(sim), cold(sgx); a >= b {
		t.Fatalf("cold read: simulated %d cycles, SGX calibration %d", a, b)
	}
	if DRAMConfig(sgx).RowHit <= DRAMConfig(sim).RowHit {
		t.Fatal("SGX calibration keeps the simulated DRAM timings")
	}
}

func TestUnknownKindsPanic(t *testing.T) {
	bad := ConfigSCT()
	bad.Counter = "bogus"
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown counter scheme accepted")
			}
		}()
		NewSystem(bad)
	}()
	bad2 := ConfigSCT()
	bad2.Tree = "bogus"
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown tree accepted")
			}
		}()
		NewSystem(bad2)
	}()
}

func TestAccessPathsOnAllConfigs(t *testing.T) {
	for _, dp := range []DesignPoint{ConfigSCT(), ConfigHT(), ConfigSGX()} {
		sys := NewSystem(dp)
		p := sys.AllocPage(0)
		b := p.Block(0)
		_, cold := sys.Read(0, b)
		if cold.Report.Path != secmem.PathTreeMiss {
			t.Fatalf("%s: cold path = %v", dp.Name, cold.Report.Path)
		}
		_, hot := sys.Read(0, b)
		if hot.Report.Path != secmem.PathCacheHit {
			t.Fatalf("%s: hot path = %v", dp.Name, hot.Report.Path)
		}
		sys.Flush(0, b)
		_, warm := sys.Read(0, b)
		if warm.Report.Path != secmem.PathCounterHit {
			t.Fatalf("%s: warm path = %v", dp.Name, warm.Report.Path)
		}
		if sys.TamperDetections() != 0 {
			t.Fatalf("%s: spurious tamper detection", dp.Name)
		}
	}
}

func TestInsecureBaselineFlat(t *testing.T) {
	dp := ConfigSCT()
	dp.Insecure = true
	dp.SecurePages = 1 << 12
	sys := NewSystem(dp)
	p := sys.AllocPage(0)
	b := p.Block(0)
	var data [arch.BlockSize]byte
	data[0] = 7
	sys.Write(0, b, data)
	sys.Flush(0, b)
	got, res := sys.Read(0, b)
	if got != data {
		t.Fatal("plain round trip broken")
	}
	// No metadata machinery: no counter misses, no tree loads, ever.
	st := sys.Ctrl.Stats()
	if st.CounterMisses != 0 || st.TreeNodeLoads != 0 {
		t.Fatalf("insecure baseline touched metadata: %+v", st)
	}
	if res.Report.TreeLevelsLoaded != 0 {
		t.Fatal("plain read reported tree levels")
	}
}

func TestCombinedDefences(t *testing.T) {
	// Both §IX defences at once: isolated per-domain trees AND a
	// randomized metadata cache. The machine still runs; both attack
	// construction paths fail for their own reasons.
	dp := ConfigSCT()
	dp.SecurePages = 1 << 16
	dp.IsolatedDomains = 4
	dp.RandomizedMeta = true
	sys := NewSystem(dp)
	p := sys.AllocPage(0)
	sys.WriteThrough(0, p.Block(0), [arch.BlockSize]byte{1})
	got, _ := sys.Read(0, p.Block(0))
	if got[0] != 1 {
		t.Fatal("combined-defence machine broken")
	}
	if sys.Ctrl.Meta() != nil {
		t.Fatal("randomized meta cache exposes geometry")
	}
	if sys.TamperDetections() != 0 {
		t.Fatal("false tamper under combined defences")
	}
}

// BenchmarkNewSystem measures building a machine at the three design
// points, with and without the noise process (whose 1,024 pages the
// frame allocator places during construction).
func BenchmarkNewSystem(b *testing.B) {
	for _, dp := range []DesignPoint{ConfigSCT(), ConfigHT(), ConfigSGX()} {
		for _, noise := range []arch.Cycles{0, 2000} {
			dp.NoiseInterval = noise
			b.Run(fmt.Sprintf("%s/noise=%d", dp.Name, noise), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					NewSystem(dp)
				}
			})
		}
	}
}
