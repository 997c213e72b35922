package core

import (
	"fmt"

	"metaleak/internal/arch"
	"metaleak/internal/itree"
)

// EvictionSet is a collection of attacker-owned data blocks whose
// encryption counter blocks all map to one metadata cache set. Accessing
// them (with the data itself flushed, so the access reaches the memory
// controller) loads those counter blocks into that set, displacing
// whatever metadata block the attacker wants gone — the indirection at the
// heart of mEvict (§VI-A, challenge 1: programs cannot address metadata).
type EvictionSet struct {
	// Target is the metadata block this set displaces.
	Target arch.BlockID
	// Blocks are the attacker-owned data blocks to access, in order. There
	// are 2× associativity of them so that cycling through the list in
	// order defeats LRU (every access misses).
	Blocks []arch.BlockID
}

// BuildEvictionSet allocates attacker pages whose counter blocks collide
// with the target metadata block's cache set and returns the resulting
// set. Frames whose verification path passes through any node in avoid
// are skipped, so running the set never re-loads the node being evicted.
func (a *Attacker) BuildEvictionSet(target arch.BlockID, avoid []itree.NodeRef) (*EvictionSet, error) {
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

// Warm touches every eviction block once so later runs walk only as far
// as their (then-cached) private leaf nodes and cannot disturb high tree
// levels under observation.
func (a *Attacker) Warm(es *EvictionSet) {
	for _, b := range es.Blocks {
		a.Sys.Flush(a.Core, b)
		a.Sys.Touch(a.Core, b)
	}
}

// RunEviction performs one mEvict pass for the set: each access misses
// the data caches (own-line flush) and forces the block's counter into
// the target metadata set, evicting the prior occupants.
func (a *Attacker) RunEviction(es *EvictionSet) {
	for _, b := range es.Blocks {
		a.Sys.Flush(a.Core, b)
		a.Sys.Touch(a.Core, b)
	}
}

// RunEvictionTimed is RunEviction measuring each access, returning the
// slowest one. A dirty eviction that triggers tree-counter overflow
// handling stalls for the whole subtree re-hash, so the maximum
// single-access latency is the mOverflow observable.
func (a *Attacker) RunEvictionTimed(es *EvictionSet) arch.Cycles {
	var max arch.Cycles
	for _, b := range es.Blocks {
		a.Sys.Flush(a.Core, b)
		if lat := a.Sys.TimedRead(a.Core, b); lat > max {
			max = lat
		}
	}
	return max
}

// evictionPlan deduplicates eviction sets by metadata cache set index:
// monitors that must clear several metadata blocks living in the same set
// need only one eviction set for it.
type evictionPlan struct {
	sets []*EvictionSet
}

// setCache shares eviction sets (keyed by metadata cache set index)
// between the plans of one attack setup, so overlapping plans do not
// hoard duplicate page frames.
type setCache map[int]*EvictionSet

// buildPlan creates eviction sets covering every target metadata block,
// one per distinct cache set, reusing sets from the cache when present.
func (a *Attacker) buildPlan(cache setCache, targets []arch.BlockID, avoid []itree.NodeRef) (*evictionPlan, error) {
	meta := a.MC.Meta()
	if meta == nil {
		return nil, fmt.Errorf("core: randomized metadata cache — conflict-based mEvict unavailable")
	}
	covered := make(map[int]bool)
	plan := &evictionPlan{}
	for _, tgt := range targets {
		si := meta.SetIndex(tgt)
		if covered[si] {
			continue
		}
		covered[si] = true
		es := cache[si]
		if es == nil {
			var err error
			es, err = a.BuildEvictionSet(tgt, avoid)
			if err != nil {
				return nil, err
			}
			cache[si] = es
		}
		plan.sets = append(plan.sets, es)
	}
	return plan, nil
}

// run executes every eviction set in the plan.
func (p *evictionPlan) run(a *Attacker) {
	for _, es := range p.sets {
		a.RunEviction(es)
	}
}

// warm touches every set once (see Attacker.Warm).
func (p *evictionPlan) warm(a *Attacker) {
	for _, es := range p.sets {
		a.Warm(es)
	}
}
