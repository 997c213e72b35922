package secmem

import (
	"metaleak/internal/arch"
	"metaleak/internal/itree"
)

// This file implements the lazy metadata update machinery of §V: dirty
// counter blocks leaving the metadata cache update their integrity tree
// leaf; dirty node blocks leaving update their parent. Updates can cascade
// (the parent must itself come on-chip and becomes dirty), so evictions are
// processed through a work list rather than recursion.

// insertMeta fills a metadata block into the metadata cache and processes
// the eviction chain it may trigger. It returns the advanced time.
func (c *Controller) insertMeta(now arch.Cycles, b arch.BlockID, dirty bool) arch.Cycles {
	ev, evicted := c.meta.Insert(b, dirty)
	if !evicted || !ev.Dirty {
		return now
	}
	// The controller's reusable work slice serves as the FIFO (indexing
	// instead of re-slicing, so the backing array survives for the next
	// eviction chain). Chains never nest: writebackMeta appends to this
	// same list rather than recursing into insertMeta.
	c.work = append(c.work[:0], ev.Block)
	for i := 0; i < len(c.work); i++ {
		now = c.writebackMeta(now, c.work[i], &c.work)
	}
	return now
}

// writebackMeta handles one dirty metadata block leaving the cache. New
// evictions caused by fetching the updated ancestor are appended to work.
func (c *Controller) writebackMeta(now arch.Cycles, b arch.BlockID, work *[]arch.BlockID) arch.Cycles {
	switch {
	case b.IsCounter():
		c.stats.CounterWritebacks++
		// The leaf node must be brought on-chip (and verified against its
		// OLD contents) BEFORE the update mutates it: verifying after the
		// mutation would compare fresh contents against the stale stored
		// hash and report phantom tampering.
		leaf := c.tree.LeafRef(b)
		now = c.touchNodeDirty(now, leaf, work)
		up := c.tree.WritebackCounterBlock(b, c.ctrs.BlockBytes(b))
		now = c.applyTreeUpdate(now, up)
	case b.IsTree():
		ref, ok := c.tree.RefOfBlock(b)
		if !ok {
			break
		}
		c.stats.NodeWritebacks++
		// Same ordering: fetch-and-verify the parent before updating it.
		if parent, hasParent := c.tree.Parent(ref); hasParent {
			now = c.touchNodeDirty(now, parent, work)
		}
		up := c.tree.WritebackNode(ref)
		now = c.applyTreeUpdate(now, up)
	}
	// The block itself goes to memory.
	now += c.eng.HashLatency()
	c.dram.Write(now, b)
	return now
}

// touchNodeDirty ensures a tree node block is in the metadata cache and
// marks it dirty, charging a fetch if it was absent. Evictions go to work.
func (c *Controller) touchNodeDirty(now arch.Cycles, ref itree.NodeRef, work *[]arch.BlockID) arch.Cycles {
	nb := c.tree.NodeBlockID(ref)
	if c.meta.Access(nb, true) {
		return now + c.meta.HitLatency()
	}
	now = c.dram.Read(now, nb)
	if !c.tree.VerifyNode(ref) {
		c.stats.TamperDetections++
	}
	now += c.eng.HashLatency()
	ev, evicted := c.meta.Insert(nb, true)
	if evicted && ev.Dirty {
		*work = append(*work, ev.Block)
	}
	return now
}

// applyTreeUpdate charges the cost of a tree-counter overflow: every
// re-hashed metadata block must be read from memory, re-hashed, and
// written back (the subtree re-hash of §IV-C). The burst occupies the
// affected banks in the background — which is exactly what makes overflow
// observable to a concurrent timed read (Fig. 8). The overflow is
// recorded so the in-flight Write's report can surface it.
func (c *Controller) applyTreeUpdate(now arch.Cycles, up *itree.Update) arch.Cycles {
	if up == nil || !up.Overflow {
		return now
	}
	c.stats.TreeOverflows++
	c.stats.RehashedBlocks += uint64(up.RehashedBlocks)
	c.pendingTreeOverflow = true
	// The subtree sweep (read, re-hash, write back every affected metadata
	// block) is posted as a background burst occupying the blocks' banks;
	// the triggering operation stalls only for the bookkeeping.
	occupancy := c.cfg.DRAM.RowHit + c.cfg.DRAM.WriteLat + c.eng.HashLatency()
	for _, r := range up.Rehashed {
		c.dram.Background(now, r.First, r.N, occupancy)
	}
	return now + overflowStall
}
