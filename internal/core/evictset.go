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
//
// The candidates are computed, not searched for. The metadata cache
// indexes a block by its low bits, and the counter region's first block
// (CounterBase.Block(), 2^34) is aligned for every power-of-two set
// count, so counter block i of the region lands in set i mod sets: the
// candidates are the indices targetSet, targetSet+sets, ... Counter
// block i covers data blocks [i·fan, (i+1)·fan) of one page, so its
// first data block is the one to touch and that block's page the frame
// to claim. Frames ascend with the index and are claimed in address
// order, one block each: once a frame is owned (beforehand, or just
// claimed here) its later indices are passed over, and an avoided index
// gives way to the frame's next one, which exists only when sets is
// smaller than fan. No counter block can repeat across frames (under SC
// each frame has its own, under MoC/GC its own eight), so the set needs
// no duplicate check. TestBuildEvictionSetMatchesScan holds the walk to
// a scan of every block of every frame.
func (a *Attacker) BuildEvictionSet(target arch.BlockID, avoid []itree.NodeRef) (*EvictionSet, error) {
	meta := a.MC.Meta()
	if meta == nil {
		return nil, fmt.Errorf("core: randomized metadata cache — no stable set mapping for conflict-based eviction (use VolumeMonitor)")
	}
	want := 2 * meta.Config().Ways
	sets := meta.Config().Sets()
	targetSet := meta.SetIndex(target)

	avoidRange := make([][2]int, 0, len(avoid))
	for _, ref := range avoid {
		lo, hi := a.counterIndexRange(ref)
		avoidRange = append(avoidRange, [2]int{lo, hi})
	}
	avoided := func(i int) bool {
		for _, r := range avoidRange {
			if i >= r[0] && i < r[1] {
				return true
			}
		}
		return false
	}

	es := &EvictionSet{Target: target, Blocks: make([]arch.BlockID, 0, want)}
	fan := a.MC.Counters().FanOut()
	limit := arch.PageID(a.Sys.SecurePages())
	for i := targetSet; len(es.Blocks) < want; i += sets {
		b := arch.BlockID(i * fan)
		frame := b.Page()
		if frame >= limit {
			break
		}
		if a.Sys.Owner(frame) != -1 || avoided(i) {
			continue
		}
		if err := a.ClaimFrame(frame); err != nil {
			return nil, err
		}
		es.Blocks = append(es.Blocks, b)
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
