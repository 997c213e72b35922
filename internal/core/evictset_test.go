package core

import (
	"fmt"
	"slices"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/itree"
	"metaleak/internal/machine"
)

func TestEvictionSetBlocksShareTargetSet(t *testing.T) {
	r := newRig(t, 70, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	meta := r.mc.Meta()
	// Several targets across regions: counter blocks and tree node blocks.
	targets := []arch.BlockID{
		r.mc.Counters().CounterBlock(arch.PageID(5).Block(0)),
		r.mc.Tree().NodeBlockID(a.NodeOfPage(arch.PageID(77), 0)),
		r.mc.Tree().NodeBlockID(a.NodeOfPage(arch.PageID(4000), 1)),
	}
	for _, tgt := range targets {
		es, err := a.BuildEvictionSet(tgt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(es.Blocks) != 2*meta.Config().Ways {
			t.Fatalf("set has %d blocks, want %d", len(es.Blocks), 2*meta.Config().Ways)
		}
		seen := make(map[arch.BlockID]bool)
		for _, b := range es.Blocks {
			cb := r.mc.Counters().CounterBlock(b)
			if meta.SetIndex(cb) != meta.SetIndex(tgt) {
				t.Fatalf("block %v's counter maps to set %d, want %d",
					b, meta.SetIndex(cb), meta.SetIndex(tgt))
			}
			if seen[cb] {
				t.Fatal("duplicate counter block in eviction set")
			}
			seen[cb] = true
			if r.sys.Owner(b.Page()) != a.Core {
				t.Fatal("eviction block not attacker-owned")
			}
		}
	}
}

func TestEvictionSetRespectsAvoid(t *testing.T) {
	r := newRig(t, 71, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	avoidRef := a.NodeOfPage(arch.PageID(0), 1) // L1 subtree: pages 0..511
	tgt := r.mc.Counters().CounterBlock(arch.PageID(3).Block(0))
	es, err := a.BuildEvictionSet(tgt, []itree.NodeRef{avoidRef})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := a.counterIndexRange(avoidRef)
	for _, b := range es.Blocks {
		cb := r.mc.Counters().CounterBlock(b)
		idx := int(cb - arch.CounterBase.Block())
		if idx >= lo && idx < hi {
			t.Fatalf("eviction block %v inside avoided subtree", b)
		}
	}
}

func TestMonitorStatsAccounting(t *testing.T) {
	r := newRig(t, 72, 0)
	vp, access := r.victim(1)
	a := NewAttacker(r.sys, r.mc, 0, false)
	m, err := a.NewMonitor(vp, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Calibrate(6)
	base := m.Rounds
	for i := 0; i < 10; i++ {
		m.Evict()
		if i < 5 {
			access()
		}
		m.Reload()
	}
	if m.Rounds != base+10 {
		t.Fatalf("rounds %d want %d", m.Rounds, base+10)
	}
	if m.Hits < 4 || m.Hits > base+6 {
		t.Fatalf("hit accounting off: %d", m.Hits)
	}
}

func TestScratchStableAndOwned(t *testing.T) {
	r := newRig(t, 73, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	s1 := a.Scratch(100)
	s2 := a.Scratch(50)
	for i := range s2 {
		if s1[i] != s2[i] {
			t.Fatal("scratch blocks not stable across calls")
		}
	}
	for _, b := range s1 {
		if r.sys.Owner(b.Page()) != 0 {
			t.Fatal("scratch block not owned by attacker")
		}
	}
}

func TestNodeOfBlockBounds(t *testing.T) {
	r := newRig(t, 74, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range level")
		}
	}()
	a.NodeOfBlock(arch.PageID(0).Block(0), 99)
}

func TestClaimUnderExhaustion(t *testing.T) {
	r := newRig(t, 75, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	ns := a.NodeOfPage(arch.PageID(0), 0) // leaf: 32 frames total
	if _, err := a.ClaimUnder(ns, 33); err == nil {
		t.Fatal("claimed more frames than the node covers")
	}
	frames, err := a.ClaimUnder(a.NodeOfPage(arch.PageID(64), 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if a.NodeOfPage(f, 0) != a.NodeOfPage(arch.PageID(64), 0) {
			t.Fatal("claimed frame outside the node")
		}
	}
}

// referenceBuildEvictionSet is the frame-by-frame scan that
// BuildEvictionSet's closed form replaced, kept verbatim as its oracle:
// walk every frame from 0 and test each free frame's 64 blocks for a
// counter block in the target set.
func referenceBuildEvictionSet(a *Attacker, target arch.BlockID, avoid []itree.NodeRef) (*EvictionSet, error) {
	meta := a.MC.Meta()
	if meta == nil {
		return nil, fmt.Errorf("core: randomized metadata cache — no stable set mapping for conflict-based eviction (use VolumeMonitor)")
	}
	want := 2 * meta.Config().Ways
	targetSet := meta.SetIndex(target)

	avoidRange := make([][2]int, 0, len(avoid))
	for _, ref := range avoid {
		lo, hi := a.counterIndexRange(ref)
		avoidRange = append(avoidRange, [2]int{lo, hi})
	}
	cbIndexOf := func(cb arch.BlockID) int { return int(cb - arch.CounterBase.Block()) }
	avoided := func(cb arch.BlockID) bool {
		i := cbIndexOf(cb)
		for _, r := range avoidRange {
			if i >= r[0] && i < r[1] {
				return true
			}
		}
		return false
	}

	es := &EvictionSet{Target: target}
	seenCB := make(map[arch.BlockID]bool)
	limit := arch.PageID(a.Sys.SecurePages())
	for frame := arch.PageID(0); frame < limit && len(es.Blocks) < want; frame++ {
		if a.Sys.Owner(frame) != -1 {
			continue
		}
		// Find a block in this frame whose counter block lands in the set.
		var pick arch.BlockID
		found := false
		for i := 0; i < arch.BlocksPerPage; i++ {
			b := frame.Block(i)
			cb := a.MC.Counters().CounterBlock(b)
			if seenCB[cb] || avoided(cb) || meta.SetIndex(cb) != targetSet {
				continue
			}
			pick, found = b, true
			seenCB[cb] = true
			break
		}
		if !found {
			continue
		}
		if err := a.ClaimFrame(frame); err != nil {
			return nil, err
		}
		es.Blocks = append(es.Blocks, pick)
	}
	if len(es.Blocks) < want {
		return nil, fmt.Errorf("core: found only %d/%d eviction blocks for set %d", len(es.Blocks), want, targetSet)
	}
	return es, nil
}

// evictDiffCase is one machine for the eviction-set differential test:
// a design point, frames another core holds before the attacker starts,
// and the tree nodes every set must avoid.
type evictDiffCase struct {
	name     string
	dp       machine.DesignPoint
	preclaim bool
	// avoid picks the avoided nodes on the attacker's machine.
	avoid func(a *Attacker) []itree.NodeRef
}

// preclaimFrames hands core 1 a run of low frames through the allocator
// and a scattered third of the free frames above them, the same on every
// machine built from one design point.
func preclaimFrames(t *testing.T, sys *machine.System) {
	t.Helper()
	for i := 0; i < 40; i++ {
		sys.AllocPage(1)
	}
	rng := arch.NewRNG(sys.DP.Seed, 7)
	n := sys.SecurePages()
	if n > 1<<14 {
		n = 1 << 14
	}
	for f := 40; f < n; f++ {
		if rng.Intn(3) == 0 && sys.Owner(arch.PageID(f)) == -1 {
			if err := sys.AllocFrame(1, arch.PageID(f)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// evictTargets lists the metadata blocks a case builds sets for, in
// order: a counter block twice (the second build must pass over the
// first's frames), one at the top of the region, and a node block at
// every stored tree level.
func evictTargets(a *Attacker) []arch.BlockID {
	last := arch.PageID(a.Sys.SecurePages() - 1)
	first := a.MC.Counters().CounterBlock(arch.PageID(5).Block(0))
	out := []arch.BlockID{first, first, a.MC.Counters().CounterBlock(last.Block(arch.BlocksPerPage - 1))}
	for level := 0; level < a.tree().StoredLevels(); level++ {
		out = append(out, a.tree().NodeBlockID(a.NodeOfPage(arch.PageID(77), level)))
	}
	return out
}

// runEvictDiff builds the case's machine twice, runs the reference scan
// on one and BuildEvictionSet on the other over the same target
// sequence, and requires the same blocks, the same errors and the same
// owner for every frame.
func runEvictDiff(t *testing.T, c evictDiffCase) {
	t.Helper()
	sysRef, sysNew := machine.NewSystem(c.dp), machine.NewSystem(c.dp)
	if c.preclaim {
		preclaimFrames(t, sysRef)
		preclaimFrames(t, sysNew)
	}
	ref := NewAttacker(sysRef.System, sysRef.Ctrl, 0, false)
	got := NewAttacker(sysNew.System, sysNew.Ctrl, 0, false)
	var avoid []itree.NodeRef
	if c.avoid != nil {
		avoid = c.avoid(ref)
	}
	var fails []string
	for _, tgt := range evictTargets(ref) {
		want, wantErr := referenceBuildEvictionSet(ref, tgt, avoid)
		have, haveErr := got.BuildEvictionSet(tgt, avoid)
		if fmt.Sprint(wantErr) != fmt.Sprint(haveErr) {
			t.Fatalf("target %#x: error %v, reference %v", uint64(tgt), haveErr, wantErr)
		}
		if wantErr != nil {
			fails = append(fails, wantErr.Error())
			continue
		}
		if have.Target != want.Target || !slices.Equal(have.Blocks, want.Blocks) {
			t.Fatalf("target %#x: blocks %v, reference %v", uint64(tgt), have.Blocks, want.Blocks)
		}
	}
	for f := 0; f < c.dp.SecurePages; f++ {
		if o, w := sysNew.Owner(arch.PageID(f)), sysRef.Owner(arch.PageID(f)); o != w {
			t.Fatalf("frame %d owned by %d, reference %d", f, o, w)
		}
	}
	t.Logf("%d targets, %d failed %q", len(evictTargets(ref)), len(fails), fails)
}

// TestBuildEvictionSetMatchesScan holds the closed-form eviction-set
// builder to the frame scan it replaced across SC (SCT, HT) and packed
// (SGX's MoC, a GC point) counters, every metadata-cache size from two
// sets to 512, frames held by another core, avoided subtrees that cover
// whole frames or split one, isolated domains that refuse a claim, and
// regions too small to yield a full set.
func TestBuildEvictionSetMatchesScan(t *testing.T) {
	noisy := machine.ConfigSCT()
	noisy.Name = "SCT-noise"
	noisy.NoiseInterval = 2000
	isolated := machine.ConfigSCT()
	isolated.Name = "SCT-iso"
	isolated.IsolatedDomains = 4

	avoids := []struct {
		name string
		fn   func(a *Attacker) []itree.NodeRef
	}{
		{"none", nil},
		{"one", func(a *Attacker) []itree.NodeRef {
			return []itree.NodeRef{a.NodeOfPage(0, 1)}
		}},
		{"two", func(a *Attacker) []itree.NodeRef {
			return []itree.NodeRef{a.NodeOfPage(3, 0), a.NodeOfPage(1000, 1)}
		}},
	}
	// Each design meets all six (preclaim, avoid) combinations once
	// across its six cache sizes.
	cases := 0
	for d, base := range []machine.DesignPoint{machine.ConfigSCT(), machine.ConfigHT(), machine.ConfigSGX(), gcSplitLeaves(), noisy} {
		for k, kb := range []int{1, 2, 4, 16, 64, 256} {
			av := avoids[(k+d)%len(avoids)]
			dp := base
			dp.MetaKB = kb
			dp.Seed = uint64(kb)
			dp.SecurePages = 1 << 15
			c := evictDiffCase{dp: dp, preclaim: k%2 == 1, avoid: av.fn}
			c.name = fmt.Sprintf("%s/meta=%dKB/preclaim=%t/avoid=%s", dp.Name, kb, c.preclaim, av.name)
			t.Run(c.name, func(t *testing.T) { runEvictDiff(t, c) })
			cases++
		}
	}
	// Regions that run out: 512 sets leave an SC region of 4,096 frames
	// eight candidates per set and a MoC region of 1,024 frames sixteen,
	// so every build fails or the repeated target's second one does. Four isolated domains
	// of 1,024 frames send the scan into core 1's domain, whose claim
	// fails.
	for _, base := range []machine.DesignPoint{machine.ConfigSCT(), machine.ConfigSGX(), isolated} {
		for _, pages := range []int{1 << 10, 1 << 12} {
			dp := base
			dp.SecurePages = pages
			dp.MetaKB = 256
			c := evictDiffCase{name: fmt.Sprintf("%s/pages=%d", dp.Name, pages), dp: dp}
			t.Run(c.name, func(t *testing.T) { runEvictDiff(t, c) })
			cases++
		}
	}
	t.Logf("%d cases", cases)
}

// gcSplitLeaves is a GC design point whose 2-ary leaf level covers two of
// a frame's eight counter blocks, so one leaf node splits a frame.
func gcSplitLeaves() machine.DesignPoint {
	dp := machine.ConfigSGX()
	dp.Name = "GC"
	dp.Counter = machine.CounterGC
	dp.GCBits = 32
	dp.TreeArities = []int{2, 4, 8, 8, 8}
	return dp
}

// TestFramesUnderMatchesBlockScan holds FramesUnder's page-range
// arithmetic to a scan that maps every block of every frame through
// CounterBlock and the tree, with a third of the frames held by another
// core, for tree nodes at every level.
func TestFramesUnderMatchesBlockScan(t *testing.T) {
	const limit = 48
	for _, dp := range []machine.DesignPoint{machine.ConfigSCT(), machine.ConfigSGX(), gcSplitLeaves()} {
		dp.SecurePages = 1 << 12
		sys := machine.NewSystem(dp)
		preclaimFrames(t, sys)
		a := NewAttacker(sys.System, sys.Ctrl, 0, false)
		for _, page := range []arch.PageID{0, 37, 1000} {
			for level := 0; level < a.tree().StoredLevels(); level++ {
				ref := a.NodeOfPage(page, level)
				var want []arch.PageID
				for p := arch.PageID(0); int(p) < dp.SecurePages && len(want) < limit; p++ {
					if sys.Owner(p) != -1 {
						continue
					}
					for i := 0; i < arch.BlocksPerPage; i++ {
						if a.tree().Path(a.MC.Counters().CounterBlock(p.Block(i)))[level] == ref {
							want = append(want, p)
							break
						}
					}
				}
				if got := a.FramesUnder(ref, limit); !slices.Equal(got, want) {
					t.Fatalf("%s: %v: frames %v, want %v", dp.Name, ref, got, want)
				}
			}
		}
	}
}

// BenchmarkBuildEvictionSet measures one eviction set for a victim's
// level-1 tree node on a fresh machine, avoiding the victim's leaf and
// level-1 nodes as a monitor does. Machines are built outside the timer
// in batches.
func BenchmarkBuildEvictionSet(b *testing.B) {
	for _, base := range []machine.DesignPoint{machine.ConfigSCT(), machine.ConfigHT(), machine.ConfigSGX()} {
		for _, kb := range []int{64, 256} {
			dp := base
			dp.MetaKB = kb
			b.Run(fmt.Sprintf("%s/meta=%dKB", dp.Name, kb), func(b *testing.B) {
				b.ReportAllocs()
				const batch = 32
				attackers := make([]*Attacker, 0, batch)
				for done := 0; done < b.N; {
					b.StopTimer()
					attackers = attackers[:0]
					for len(attackers) < batch && done+len(attackers) < b.N {
						sys := machine.NewSystem(dp)
						sys.AllocPage(1)
						attackers = append(attackers, NewAttacker(sys.System, sys.Ctrl, 0, false))
					}
					b.StartTimer()
					for _, a := range attackers {
						vic := arch.PageID(0)
						avoid := []itree.NodeRef{a.NodeOfPage(vic, 0), a.NodeOfPage(vic, 1)}
						if _, err := a.BuildEvictionSet(a.tree().NodeBlockID(avoid[1]), avoid); err != nil {
							b.Fatal(err)
						}
					}
					done += len(attackers)
				}
			})
		}
	}
}
