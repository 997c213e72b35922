// Package core implements the MetaLeak attack framework — the paper's
// primary contribution (§VI). It provides:
//
//   - the attacker toolkit: integrity tree address arithmetic, page
//     placement under chosen tree nodes, and metadata-cache eviction set
//     construction through counter indirection;
//   - mEvict+mReload (MetaLeak-T): observing a victim's accesses through
//     the caching state of shared integrity tree node blocks;
//   - mPreset+mOverflow (MetaLeak-C): observing a victim's writes through
//     tree minor counter saturation and overflow;
//   - the two covert channels of §VI built from those primitives.
//
// Everything here plays by the threat model's rules (§III): the attacker
// owns only its own pages, never reads or writes victim memory, and senses
// the victim purely through metadata-induced timing.
package core

import (
	"fmt"

	"metaleak/internal/arch"
	"metaleak/internal/itree"
	"metaleak/internal/secmem"
	"metaleak/internal/sim"
)

// Attacker is one attacking process: a core, its owned pages, and the
// address arithmetic it needs. Both side-channel attackers and covert
// channel endpoints (trojan and spy) are Attackers.
type Attacker struct {
	Sys  *sim.System
	MC   *secmem.Controller
	Core int
	// Privileged marks the SGX threat model: the attacker controls page
	// placement directly and can single-step the victim.
	Privileged bool

	scratch []arch.BlockID // own blocks for write-queue flushing
}

// NewAttacker builds an attacker bound to a core.
func NewAttacker(sys *sim.System, mc *secmem.Controller, coreID int, privileged bool) *Attacker {
	return &Attacker{
		Sys:        sys,
		MC:         mc,
		Core:       coreID,
		Privileged: privileged,
	}
}

func (a *Attacker) tree() itree.Tree { return a.MC.Tree() }

// NodeOfBlock returns the tree node at the given level on the
// verification path of a data block's counter.
func (a *Attacker) NodeOfBlock(b arch.BlockID, level int) itree.NodeRef {
	path := a.tree().Path(a.MC.Counters().CounterBlock(b))
	if level < 0 || level >= len(path) {
		panic(fmt.Sprintf("core: level %d outside tree of %d levels", level, len(path)))
	}
	return path[level]
}

// NodeOfPage is NodeOfBlock for a page's first block.
func (a *Attacker) NodeOfPage(p arch.PageID, level int) itree.NodeRef {
	return a.NodeOfBlock(p.Block(0), level)
}

// counterIndexRange returns the [lo, hi) counter-block index range a node
// covers.
func (a *Attacker) counterIndexRange(ref itree.NodeRef) (int, int) {
	cov := a.tree().CoverageCounterBlocks(ref.Level)
	lo := ref.Index * cov
	hi := lo + cov
	if n := a.tree().CounterBlockCapacity(); hi > n {
		hi = n
	}
	return lo, hi
}

// FramesUnder enumerates up to limit page frames whose counter
// verification path passes through ref, skipping frames that are already
// owned. This is the address arithmetic of §VIII-B (the A^l page-group
// formula), generalized to any counter scheme.
func (a *Attacker) FramesUnder(ref itree.NodeRef, limit int) []arch.PageID {
	out := make([]arch.PageID, 0, limit)
	a.VisitFramesUnder(ref, func(p arch.PageID) bool {
		out = append(out, p)
		return len(out) >= limit
	})
	return out
}

// VisitFramesUnder calls fn for every free frame whose verification path
// passes through ref, in address order, until fn returns true. It reports
// whether any call returned true. Unlike FramesUnder it does not
// materialize the frame list, so it scales to high tree levels whose
// coverage is the whole secure region.
func (a *Attacker) VisitFramesUnder(ref itree.NodeRef, fn func(arch.PageID) bool) bool {
	lo, hi := a.counterIndexRange(ref)
	if lo >= hi {
		return false
	}
	// Counter block i covers data blocks [i·fan, (i+1)·fan) of one page,
	// so a run of counter blocks covers the run of pages from its first
	// block's page to its last block's.
	fan := a.MC.Counters().FanOut()
	last := arch.BlockID((hi - 1) * fan).Page()
	for p := arch.BlockID(lo * fan).Page(); p <= last; p++ {
		if a.Sys.Owner(p) == -1 && fn(p) {
			return true
		}
	}
	return false
}

// ClaimFrame allocates a specific frame to this attacker. Unprivileged
// attackers achieve this through per-core free-list massaging (§VIII-A1);
// privileged (SGX) attackers simply control EPC assignment — the simulator
// models both as a targeted allocation.
func (a *Attacker) ClaimFrame(p arch.PageID) error {
	return a.Sys.AllocFrame(a.Core, p)
}

// ClaimUnder allocates n frames under ref and returns them.
func (a *Attacker) ClaimUnder(ref itree.NodeRef, n int) ([]arch.PageID, error) {
	frames := a.FramesUnder(ref, n)
	if len(frames) < n {
		return nil, fmt.Errorf("core: only %d free frames under %v, need %d", len(frames), ref, n)
	}
	for _, f := range frames {
		if err := a.ClaimFrame(f); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// Scratch returns n attacker-owned blocks in otherwise unused pages,
// allocating them on first use. They serve as write-queue flushing fodder
// and calibration probes.
func (a *Attacker) Scratch(n int) []arch.BlockID {
	for len(a.scratch) < n {
		p := a.Sys.AllocPage(a.Core)
		for i := 0; i < arch.BlocksPerPage; i++ {
			a.scratch = append(a.scratch, p.Block(i))
		}
	}
	return a.scratch[:n]
}

// FlushWriteQueue drains the memory controller's write queue the way the
// paper's attacker does: by issuing redundant writes to its own blocks
// outside any subtree of interest until forced drains empty the queue
// (§VI-B). It returns the number of redundant writes issued.
func (a *Attacker) FlushWriteQueue() int {
	cfg := a.MC.DRAM().Config()
	// Distinct blocks (no merging) so every write occupies a queue slot:
	// after depth+batch of them, every previously queued write has been
	// forced out to the banks.
	total := cfg.WriteQueueDepth + cfg.DrainBatch
	blocks := a.Scratch(total)
	for i := 0; i < total; i++ {
		a.Sys.WriteThrough(a.Core, blocks[i], [arch.BlockSize]byte{byte(i)})
	}
	return total
}
