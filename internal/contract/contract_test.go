package contract

import (
	"strings"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/machine"
	"metaleak/internal/secmem"
	"metaleak/internal/sim"
	"metaleak/internal/trace"
)

func TestDefaultContracts(t *testing.T) {
	sct, err := For(machine.ConfigSCT())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Component{CompSet, CompBank, CompOverflow, CompTree, CompLatency, CompTime, CompCount} {
		if !sct.Observable.Has(c) {
			t.Fatalf("sct observable missing %s: %s", c, sct)
		}
	}
	if !sct.Required.Has(CompOverflow) {
		t.Fatalf("sct should require the overflow channel: %s", sct)
	}

	rand := machine.ConfigSCT()
	rand.RandomizedMeta = true
	rc, err := For(rand)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Observable.Has(CompSet) {
		t.Fatalf("RandomizedMeta must remove set from the observable: %s", rc)
	}

	insec := machine.ConfigSCT()
	insec.Insecure = true
	ic, err := For(insec)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Observable.Has(CompOverflow) || ic.Observable.Has(CompTree) || ic.Required != 0 {
		t.Fatalf("insecure baseline has no metadata observables: %s", ic)
	}
}

func TestContractGrammar(t *testing.T) {
	dp := machine.ConfigSCT()
	dp.Contract = "allow=lat,time;require=none"
	c, err := For(dp)
	if err != nil {
		t.Fatal(err)
	}
	if c.Allowed != Mask(0).With(CompLatency, CompTime) || c.Required != 0 {
		t.Fatalf("parsed contract: %s", c)
	}
	// A set divergence is now out of model; latency is not.
	if v := c.Violations(Mask(0).With(CompSet, CompLatency)); v != Mask(0).With(CompSet) {
		t.Fatalf("violations: %s", v)
	}

	dp.Contract = "none"
	c, err = For(dp)
	if err != nil {
		t.Fatal(err)
	}
	if c.Allowed != 0 || c.Required != 0 {
		t.Fatalf("\"none\" contract: %s", c)
	}

	for _, bad := range []string{
		"allow=wibble",
		"permit=lat",
		"allow",
		"require=ovf;allow=lat", // requires what it does not allow
	} {
		dp.Contract = bad
		if _, err := For(dp); err == nil {
			t.Fatalf("contract %q accepted", bad)
		}
	}
	// Allowing a component the vantage cannot observe is contradictory.
	rand := machine.ConfigSCT()
	rand.RandomizedMeta = true
	rand.Contract = "allow=set"
	if _, err := For(rand); err == nil {
		t.Fatal("allow=set accepted under RandomizedMeta")
	}
}

func TestMaskRender(t *testing.T) {
	m := Mask(0).With(CompOverflow, CompSet)
	if m.String() != "set+ovf" {
		t.Fatalf("mask render: %q", m)
	}
	if Mask(0).String() != "none" {
		t.Fatalf("empty mask render: %q", Mask(0))
	}
	back, err := parseMaskList("set,ovf")
	if err != nil || back != m {
		t.Fatalf("parse round trip: %v %v", back, err)
	}
}

// TestProjectionMatchesMachine pins the projector's metadata address
// math to the machine's: the counter block of page p on SC designs is
// CounterBase + p, and observations of accesses to different pages land
// in different sets exactly when the counter blocks do.
func TestProjectionMatchesMachine(t *testing.T) {
	dp := machine.ConfigSCT()
	c, err := For(dp)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProjector(dp, c)
	b0 := arch.PageID(0).Block(0)
	b1 := arch.PageID(0).Block(63)
	if p.metaBlock(b0) != arch.CounterBase.Block() || p.metaBlock(b0) != p.metaBlock(b1) {
		t.Fatalf("SC counter blocks: %#x vs %#x", uint64(p.metaBlock(b0)), uint64(p.metaBlock(b1)))
	}
	if p.metaBlock(arch.PageID(5).Block(0)) != arch.CounterBase.Block()+5 {
		t.Fatal("SC counter block is not page-granular")
	}
	ev := func(b arch.BlockID) sim.TraceEvent {
		return sim.TraceEvent{Block: b, Path: secmem.PathTreeMiss, TreeLevels: 1}
	}
	// 256 KiB / 64 B / 8 ways = 512 sets; pages 0 and 512 share a set
	// but pages 0 and 1 do not.
	zero := p.Project(ev(arch.PageID(0).Block(0)))
	same := p.Project(ev(arch.PageID(512).Block(0)))
	one := p.Project(ev(arch.PageID(1).Block(0)))
	if zero.Set != same.Set || zero.Set == one.Set {
		t.Fatalf("set projection: %d %d %d", zero.Set, same.Set, one.Set)
	}

	moc := machine.ConfigSGX()
	cm, err := For(moc)
	if err != nil {
		t.Fatal(err)
	}
	pm := NewProjector(moc, cm)
	if pm.metaBlock(arch.BlockID(16)) != arch.CounterBase.Block()+2 {
		t.Fatal("MoC counter block is not 8-counters-per-block")
	}

	// Against live machines: every design's projected set and bank are
	// the metadata cache's and the DRAM's for the scheme's counter block.
	gc := machine.ConfigSCT()
	gc.Counter = machine.CounterGC
	small := machine.ConfigHT()
	small.MetaKB = 16
	for _, dp := range []machine.DesignPoint{machine.ConfigSCT(), small, machine.ConfigSGX(), gc} {
		dp.SecurePages = 1 << 12
		sys := machine.NewSystem(dp)
		c, err := For(dp)
		if err != nil {
			t.Fatal(err)
		}
		p := NewProjector(dp, c)
		for b := arch.BlockID(0); b < arch.BlockID(dp.SecurePages*arch.BlocksPerPage); b += 977 {
			cb := sys.Ctrl.Counters().CounterBlock(b)
			o := p.Project(ev(b))
			if int(o.Set) != sys.Ctrl.Meta().SetIndex(cb) || int(o.Bank) != sys.Ctrl.DRAM().BankOf(cb) {
				t.Fatalf("%s block %#x: projected set %d bank %d, machine set %d bank %d", dp.Name, uint64(b),
					o.Set, o.Bank, sys.Ctrl.Meta().SetIndex(cb), sys.Ctrl.DRAM().BankOf(cb))
			}
		}
	}
}

func TestObserveFiltersCacheHits(t *testing.T) {
	dp := machine.ConfigSCT()
	c, err := For(dp)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProjector(dp, c)
	events := []sim.TraceEvent{
		{Path: secmem.PathCacheHit},
		{Path: secmem.PathCounterHit, Latency: 100},
		{Path: secmem.PathCacheHit},
		{Path: secmem.PathTreeMiss, TreeLevels: 2, Latency: 400},
	}
	obs := p.Observe(events)
	if len(obs) != 2 || obs[0].Lat != 100/32 || obs[1].Tree != 2 {
		t.Fatalf("observation stream: %+v", obs)
	}
}

func TestDiffObs(t *testing.T) {
	a := []Obs{{Set: 1}, {Set: 2}, {Set: 3}}
	b := []Obs{{Set: 1}, {Set: 9, Lat: 4}, {Set: 3}}
	d := DiffObs(a, b)
	if !d.Diverged() || d.First != 1 || d.FirstMask != Mask(0).With(CompSet, CompLatency) || d.Count != 1 {
		t.Fatalf("diff: %+v", d)
	}
	if d2 := DiffObs(a, a[:2]); !d2.Mask.Has(CompCount) || d2.First != 2 {
		t.Fatalf("length diff: %+v", d2)
	}
	if d3 := DiffObs(a, a); d3.Diverged() || d3.First != -1 {
		t.Fatalf("self diff: %+v", d3)
	}
}

func TestDiffObsIdentical(t *testing.T) {
	obs := sampleObs(40)
	d := DiffObs(obs, obs)
	if d.Diverged() || d.First != -1 || d.Mask != 0 || d.Count != 0 {
		t.Fatalf("identical streams diverged: %+v", d)
	}
	if d.LenA != 40 || d.LenB != 40 {
		t.Fatalf("lengths: %+v", d)
	}
}

// TestDiffObsFirstAndFields checks that later divergences widen the
// union and the count, never First.
func TestDiffObsFirstAndFields(t *testing.T) {
	a := sampleObs(10)
	b := sampleObs(10)
	b[3].Lat++
	b[3].Path++
	b[7].Overflow = !b[7].Overflow
	d := DiffObs(a, b)
	if !d.Diverged() {
		t.Fatal("divergence missed")
	}
	if d.First != 3 || d.FirstMask != Mask(0).With(CompLatency, CompPath) {
		t.Fatalf("first divergence: %+v (components %s)", d, d.FirstMask)
	}
	if d.Mask != Mask(0).With(CompLatency, CompPath, CompOverflow) {
		t.Fatalf("component union: %s", d.Mask)
	}
	if d.Count != 2 {
		t.Fatalf("count: %d", d.Count)
	}
}

// TestDiffObsLengthOnly checks that a pure length divergence counts no
// position.
func TestDiffObsLengthOnly(t *testing.T) {
	a := sampleObs(10)
	d := DiffObs(a, a[:6])
	count := Mask(0).With(CompCount)
	if !d.Diverged() || d.Mask != count || d.First != 6 || d.FirstMask != count {
		t.Fatalf("truncated stream: %+v (components %s)", d, d.Mask)
	}
	if d.Count != 0 {
		t.Fatalf("count over common prefix: %d", d.Count)
	}
}

func TestDiffObsEmpty(t *testing.T) {
	if d := DiffObs(nil, nil); d.Diverged() || d.First != -1 {
		t.Fatalf("empty vs empty: %+v", d)
	}
	if d := DiffObs(sampleObs(1), nil); !d.Diverged() || d.Mask != Mask(0).With(CompCount) || d.First != 0 {
		t.Fatalf("one vs empty: %+v", d)
	}
}

// TestMaskStringOrder checks that a mask renders in declaration order
// whatever order its components were added in.
func TestMaskStringOrder(t *testing.T) {
	if s := Mask(0).With(CompLatency, CompSet).String(); s != "set+lat" {
		t.Fatalf("mask render: %q", s)
	}
	if s := Mask(0).With(CompCount, CompTime, CompLatency, CompOverflow, CompTree, CompPath, CompBank, CompSet).String(); s != "set+bank+path+tree+ovf+lat+time+count" {
		t.Fatalf("full mask render: %q", s)
	}
}

// TestCheckRealTrace runs a real machine and validates its trace, then
// corrupts events every way the checker knows and expects a failure
// for each.
func TestCheckRealTrace(t *testing.T) {
	dp := machine.ConfigSCT()
	dp.Seed = 7
	sys := machine.NewSystem(dp)
	rec := trace.New(1 << 12)
	detach := rec.Attach(sys.System)
	pg := sys.AllocPage(0)
	for i := 0; i < 32; i++ {
		b := pg.Block(i % arch.BlocksPerPage)
		sys.Flush(0, b)
		sys.Touch(0, b)
		sys.WriteThrough(0, b, [arch.BlockSize]byte{byte(i)})
	}
	detach()
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	if err := Check(dp, evs); err != nil {
		t.Fatalf("legal trace rejected: %v", err)
	}

	cases := map[string]sim.TraceEvent{
		"bad path":                 {Path: 9},
		"levels on counter hit":    {Path: secmem.PathCounterHit, TreeLevels: 1},
		"tree miss without levels": {Path: secmem.PathTreeMiss, TreeLevels: 0},
		"overflow on read":         {Path: secmem.PathCounterHit, Overflow: true},
		"overflow on cache hit":    {Path: secmem.PathCacheHit, Write: true, Overflow: true},
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	for _, name := range names {
		if err := Check(dp, []sim.TraceEvent{cases[name]}); err == nil {
			t.Fatalf("%s: corrupted trace accepted", name)
		}
	}

	insec := dp
	insec.Insecure = true
	bad := []sim.TraceEvent{{Path: secmem.PathTreeMiss, TreeLevels: 1}}
	if err := Check(insec, bad); err == nil || !strings.Contains(err.Error(), "insecure") {
		t.Fatalf("insecure check: %v", err)
	}
}
