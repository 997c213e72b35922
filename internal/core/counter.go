package core

import (
	"fmt"
	"sort"

	"metaleak/internal/arch"
	"metaleak/internal/itree"
)

// CounterMonitor implements mPreset+mOverflow (§VI-B): it modulates and
// probes one integrity tree minor counter — the version counter that a
// parent node holds for a shared child node.
//
// The child node (at level >= 1 of a split-counter tree) covers pages from
// several security domains, so both the attacker and the victim can
// advance its version counter without sharing any data: every write-back
// of the child node block, from either domain, increments the parent's
// minor for it.
//
// A "bump" is the attacker's unit operation: one write to an attacker
// block under the child, followed by forced write-backs up the chain
// (counter block -> intermediate nodes -> child node), netting exactly one
// increment of the monitored minor. When the minor is saturated, the bump
// triggers the overflow handling — a subtree re-hash whose cost makes the
// bump dramatically slower, which is the mOverflow observable.
type CounterMonitor struct {
	A *Attacker
	// Child is the shared node whose version counter is monitored.
	Child itree.NodeRef
	// Parent holds the monitored minor; Slot is its index there.
	Parent itree.NodeRef
	Slot   int

	// write rotation state: attacker blocks under Child with write budget
	// (rotating keeps encryption minors away from their own overflow).
	slots  []writeSlot
	cursor int

	// per-page eviction plans for the chain below Child, plus the shared
	// plan for Child's own set.
	pagePlans map[arch.PageID]*evictionPlan
	childPlan *evictionPlan

	// victimPlans force propagation of victim writes up to Child, keyed by
	// the victim's counter block (any block under that counter shares the
	// chain).
	victimPlans map[arch.BlockID]*evictionPlan

	// Probe is the attacker block used for the timed mOverflow read: it
	// maps to the same DRAM bank as the subtree's counter blocks, so the
	// background re-hash burst of an overflow delays it (Fig. 8).
	Probe arch.BlockID
	// BumpThreshold classifies the probe's read latency as overflow.
	BumpThreshold arch.Cycles

	// Stats.
	Bumps     uint64
	Overflows uint64
}

type writeSlot struct {
	block  arch.BlockID
	writes int
}

// encBudget bounds writes per block so attacker traffic never overflows
// its own encryption minors (2^7 = 128 in the SCT configuration).
const encBudget = 100

// NewCounterMonitor builds a monitor for the version counter of the tree
// node at childLevel on the anchor page's verification path. A childLevel
// of -1 selects the leaf-level minor that versions the anchor page's own
// counter block (the Fig. 8 benchmark's target: single-domain, since a
// counter block covers one page); childLevel >= 0 selects the minor of a
// shared tree node (cross-domain, the attack/covert-channel target).
// victimBlocks may name victim locations whose writes the attacker wants
// propagated (their metadata chains get eviction plans too); pass none for
// a pure covert channel endpoint.
func (a *Attacker) NewCounterMonitor(anchor arch.PageID, childLevel int, victimBlocks ...arch.BlockID) (*CounterMonitor, error) {
	if childLevel < -1 {
		return nil, fmt.Errorf("core: child level must be >= -1")
	}
	if childLevel == -1 {
		return a.newLeafCounterMonitor(anchor)
	}
	child := a.NodeOfPage(anchor, childLevel)
	parent, ok := a.tree().Parent(child)
	if !ok {
		return nil, fmt.Errorf("core: node %v has no stored parent", child)
	}
	cm := &CounterMonitor{
		A:           a,
		Child:       child,
		Parent:      parent,
		Slot:        child.Index % a.tree().Arity(parent.Level),
		pagePlans:   make(map[arch.PageID]*evictionPlan),
		victimPlans: make(map[arch.BlockID]*evictionPlan),
	}

	// Claim pages under Child for write fodder, avoiding victim subtrees
	// strictly below Child.
	taken := make(map[itree.NodeRef]bool)
	for _, vb := range victimBlocks {
		for _, ref := range a.pathBelow(vb, childLevel) {
			taken[ref] = true
		}
	}
	var pages []arch.PageID
	for _, f := range a.FramesUnder(child, 4096) {
		if !a.disjointBelow(f, childLevel, taken) {
			continue
		}
		if err := a.ClaimFrame(f); err != nil {
			return nil, err
		}
		pages = append(pages, f)
		if len(pages) >= 8 {
			break
		}
	}
	if len(pages) == 0 {
		return nil, fmt.Errorf("core: no free frames under %v", child)
	}
	for _, p := range pages {
		for i := 0; i < arch.BlocksPerPage; i++ {
			cm.slots = append(cm.slots, writeSlot{block: p.Block(i)})
		}
	}

	// Eviction plans. avoid covers the chains of all participants so the
	// eviction traffic cannot re-warm them.
	var avoid []itree.NodeRef
	avoid = append(avoid, child)
	for _, p := range pages {
		avoid = append(avoid, a.pathBelow(p.Block(0), childLevel+1)...)
	}
	for _, vb := range victimBlocks {
		avoid = append(avoid, a.pathBelow(vb, childLevel+1)...)
	}

	// Plans share eviction sets through a single cache, so chains that
	// collide in the same metadata cache set reuse one set of frames.
	cache := make(setCache)
	for _, p := range pages {
		b := p.Block(0)
		targets := []arch.BlockID{a.MC.Counters().CounterBlock(b)}
		for l := 0; l <= childLevel-1; l++ {
			targets = append(targets, a.tree().NodeBlockID(a.NodeOfBlock(b, l)))
		}
		plan, err := a.buildPlan(cache, targets, avoid)
		if err != nil {
			return nil, err
		}
		cm.pagePlans[p] = plan
		plan.warm(a)
	}
	childPlan, err := a.buildPlan(cache, []arch.BlockID{a.tree().NodeBlockID(child)}, avoid)
	if err != nil {
		return nil, err
	}
	cm.childPlan = childPlan
	childPlan.warm(a)

	for _, vb := range victimBlocks {
		cb := a.MC.Counters().CounterBlock(vb)
		if _, done := cm.victimPlans[cb]; done {
			continue
		}
		targets := []arch.BlockID{cb}
		for l := 0; l <= childLevel-1; l++ {
			targets = append(targets, a.tree().NodeBlockID(a.NodeOfBlock(vb, l)))
		}
		plan, err := a.buildPlan(cache, targets, avoid)
		if err != nil {
			return nil, err
		}
		cm.victimPlans[cb] = plan
		plan.warm(a)
	}

	// The timed probe: an attacker block in the same bank as the subtree's
	// counter blocks, which the overflow re-hash burst will occupy.
	targetBank := a.MC.DRAM().BankOf(a.MC.Counters().CounterBlock(pages[0].Block(0)))
	probeOK := false
	for tries := 0; tries < 8*a.MC.DRAM().Config().Banks() && !probeOK; tries++ {
		p := a.Sys.AllocPage(a.Core)
		if a.MC.DRAM().BankOf(p.Block(0)) == targetBank {
			cm.Probe = p.Block(0)
			probeOK = true
		}
	}
	if !probeOK {
		return nil, fmt.Errorf("core: no probe frame in bank %d", targetBank)
	}
	a.Sys.Touch(a.Core, cm.Probe) // warm its metadata
	return cm, nil
}

// newLeafCounterMonitor builds the childLevel == -1 variant: the
// monitored minor is the leaf node's version counter for the attacker's
// own counter block. The bump chain is just write + counter-block
// eviction, and overflow re-hashes the leaf's 33-block subtree — the
// exact microbenchmark of Fig. 8.
func (a *Attacker) newLeafCounterMonitor(anchor arch.PageID) (*CounterMonitor, error) {
	if a.Sys.Owner(anchor) == -1 {
		if err := a.ClaimFrame(anchor); err != nil {
			return nil, err
		}
	} else if a.Sys.Owner(anchor) != a.Core {
		return nil, fmt.Errorf("core: anchor page %d not attacker-owned", anchor)
	}
	cb := a.MC.Counters().CounterBlock(anchor.Block(0))
	leaf := a.tree().LeafRef(cb)
	cm := &CounterMonitor{
		A:           a,
		Child:       itree.NodeRef{Level: -1, Index: int(cb - arch.CounterBase.Block())},
		Parent:      leaf,
		Slot:        int(cb-arch.CounterBase.Block()) % a.tree().Arity(0),
		pagePlans:   make(map[arch.PageID]*evictionPlan),
		victimPlans: make(map[arch.BlockID]*evictionPlan),
	}
	for i := 0; i < arch.BlocksPerPage; i++ {
		cm.slots = append(cm.slots, writeSlot{block: anchor.Block(i)})
	}
	avoid := []itree.NodeRef{leaf}
	cache := make(setCache)
	plan, err := a.buildPlan(cache, []arch.BlockID{cb}, avoid)
	if err != nil {
		return nil, err
	}
	cm.pagePlans[anchor] = plan
	plan.warm(a)
	// No child node block to evict: the counter-block write-back itself
	// updates the monitored minor, so the probed phase is the page plan.
	cm.childPlan = &evictionPlan{}

	targetBank := a.MC.DRAM().BankOf(cb)
	probeOK := false
	for tries := 0; tries < 8*a.MC.DRAM().Config().Banks() && !probeOK; tries++ {
		p := a.Sys.AllocPage(a.Core)
		if a.MC.DRAM().BankOf(p.Block(0)) == targetBank {
			cm.Probe = p.Block(0)
			probeOK = true
		}
	}
	if !probeOK {
		return nil, fmt.Errorf("core: no probe frame in bank %d", targetBank)
	}
	a.Sys.Touch(a.Core, cm.Probe)
	return cm, nil
}

// nextSlot rotates to an attacker block with remaining write budget.
func (cm *CounterMonitor) nextSlot() *writeSlot {
	for i := 0; i < len(cm.slots); i++ {
		s := &cm.slots[(cm.cursor+i)%len(cm.slots)]
		if s.writes < encBudget {
			cm.cursor = (cm.cursor + i + 1) % len(cm.slots)
			return s
		}
	}
	// All budgets exhausted: reset (encryption overflows become noise, as
	// they would for a real attacker running very long).
	for i := range cm.slots {
		cm.slots[i].writes = 0
	}
	return &cm.slots[cm.cursor]
}

// Bump advances the monitored minor by one and returns whether the bump
// triggered an overflow of that minor, along with the probe read latency
// that decided it. The mOverflow observable is the paper's: after the
// child write-back phase, a timed read to a block in the same bank as the
// subtree's counter blocks contends with the background re-hash burst of
// an overflow and lands in a far slower band (Fig. 8).
func (cm *CounterMonitor) Bump() (overflow bool, probeLat arch.Cycles) {
	s := cm.nextSlot()
	s.writes++
	cm.A.Sys.WriteThrough(cm.A.Core, s.block, [arch.BlockSize]byte{byte(s.writes)})
	// Force the chain below Child: counter block and intermediate nodes —
	// and for the leaf-level monitor this phase IS where the minor
	// increments, so it carries the probes then.
	if len(cm.childPlan.sets) == 0 {
		probeLat = cm.runProbed(cm.pagePlans[s.block.Page()])
	} else {
		cm.pagePlans[s.block.Page()].run(cm.A)
		// Evicting Child performs its write-back, where the monitored minor
		// increments (and may overflow, posting the re-hash burst). The
		// timed probe interleaves with the eviction accesses so that one
		// probe read lands inside the burst window (the paper's
		// concurrent-thread timed read); the slowest probe is the
		// observable.
		probeLat = cm.runProbed(cm.childPlan)
	}
	cm.Bumps++
	overflow = cm.BumpThreshold > 0 && probeLat > cm.BumpThreshold
	if overflow {
		cm.Overflows++
	}
	return overflow, probeLat
}

// runProbed runs an eviction plan one access at a time, issuing a timed
// probe read after each, and returns the slowest probe.
func (cm *CounterMonitor) runProbed(plan *evictionPlan) arch.Cycles {
	a := cm.A
	var max arch.Cycles
	for _, es := range plan.sets {
		for _, b := range es.Blocks {
			a.Sys.Flush(a.Core, b)
			a.Sys.Touch(a.Core, b)
			a.Sys.Flush(a.Core, cm.Probe)
			if lat := a.Sys.TimedRead(a.Core, cm.Probe); lat > max {
				max = lat
			}
		}
	}
	return max
}

// PropagateVictim forces a victim write (if one happened) to propagate up
// to Child by evicting the victim's metadata chain. The victim block must
// have been registered at construction.
func (cm *CounterMonitor) PropagateVictim(vb arch.BlockID) {
	plan, ok := cm.victimPlans[cm.A.MC.Counters().CounterBlock(vb)]
	if !ok {
		panic("core: victim block's counter not registered with monitor")
	}
	plan.run(cm.A)
	cm.childPlan.run(cm.A)
}

// MinorValue returns the monitored minor's ground-truth value. Tests and
// oracle comparisons only — the attack itself never reads it.
func (cm *CounterMonitor) MinorValue() uint64 {
	return cm.versionTree().MinorValue(cm.Parent, cm.Slot)
}

// IsLeafLevel reports whether this monitor targets the leaf minor of its
// own counter block (the childLevel == -1 variant).
func (cm *CounterMonitor) IsLeafLevel() bool { return cm.Child.Level == -1 }

// MinorMax returns the saturation value of the monitored minor.
func (cm *CounterMonitor) MinorMax() uint64 {
	return cm.versionTree().MinorMax()
}

// versionTree is the counter state a monitor reads: a version-counter
// tree, alone or as the §IX-C per-domain forest.
type versionTree interface {
	MinorMax() uint64
	MinorValue(ref itree.NodeRef, slot int) uint64
}

func (cm *CounterMonitor) versionTree() versionTree {
	vt, ok := cm.A.tree().(versionTree)
	if !ok {
		panic("core: counter monitor requires a version tree")
	}
	return vt
}

// Calibrate measures bump times across at least one overflow period and
// places the threshold between the two clusters. It leaves the counter in
// the just-overflowed state (value 1) and returns the cluster means.
func (cm *CounterMonitor) Calibrate() (normal, overflow arch.Cycles) {
	n := int(cm.MinorMax()) + 2
	times := make([]arch.Cycles, 0, n)
	for i := 0; i < n; i++ {
		_, e := cm.Bump()
		times = append(times, e)
	}
	sorted := append([]arch.Cycles(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// The slowest sample is the overflow; normal is the median.
	overflow = sorted[len(sorted)-1]
	normal = sorted[len(sorted)/2]
	cm.BumpThreshold = normal + (overflow-normal)/2
	// Drive to a fresh overflow so the state is known (slot == 1).
	for i := 0; i < 2*n; i++ {
		if ov, _ := cm.Bump(); ov {
			return normal, overflow
		}
	}
	panic("core: calibration never re-triggered overflow")
}

// Preset performs the mPreset step: from the known post-overflow state it
// advances the minor to the target value (§VI-B step 1). Calibrate must
// have run first.
func (cm *CounterMonitor) Preset(target uint64) {
	if cm.BumpThreshold == 0 {
		panic("core: Preset before Calibrate")
	}
	// Post-overflow (or post-probe) state is 1.
	for v := uint64(1); v < target; v++ {
		cm.Bump()
	}
}

// ProbeOverflow performs the mOverflow step: bump until the overflow is
// observed and return how many bumps m it took. The counter is left in
// the post-overflow state (value 1).
func (cm *CounterMonitor) ProbeOverflow(maxBumps int) (int, error) {
	for m := 1; m <= maxBumps; m++ {
		if ov, _ := cm.Bump(); ov {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: no overflow within %d bumps", maxBumps)
}

// PresetFor prepares the monitored minor to detect up to x victim writes:
// state = max - x (the §VI-B generalization "preset the counter to
// 2^n - x + 1"). Calibrate must have run (state is 1 afterwards).
func (cm *CounterMonitor) PresetFor(x uint64) {
	if x < 1 || x > cm.MinorMax()-1 {
		panic("core: write budget out of range")
	}
	cm.Preset(cm.MinorMax() - x)
}

// CountVictimWrites runs mOverflow and returns how many victim write-backs
// reached the shared counter since PresetFor(x): the probe needs m extra
// bumps, so writes = x + 1 - m. The counter is left post-overflow
// (value 1), ready for the next PresetFor.
func (cm *CounterMonitor) CountVictimWrites(x uint64) (uint64, error) {
	m, err := cm.ProbeOverflow(int(x) + 2)
	if err != nil {
		return 0, err
	}
	if uint64(m) > x+1 {
		return 0, fmt.Errorf("core: probe exceeded budget: m=%d x=%d", m, x)
	}
	return x + 1 - uint64(m), nil
}
