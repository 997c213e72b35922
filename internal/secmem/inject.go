package secmem

import (
	"sort"

	"metaleak/internal/arch"
)

// This file is the machine-level fault-injection surface: a pluggable
// Injector corrupts off-chip state (ciphertext, MACs, encryption
// counters, tree nodes, whole DRAM rows) immediately before planned
// accesses, and the controller's ordinary verification machinery — the
// per-read MAC check and the Algorithm 2 tree walk — is what must catch
// every corruption. The hooks are written so detection is *guaranteed*
// to be exercised, not accidental:
//
//   - counter and node corruption first establishes the lazily-computed
//     tree hash over the honest contents (otherwise the first-ever
//     verification would adopt the corruption as truth), then corrupts,
//     then invalidates the on-chip metadata copy so the tampered state
//     must be reloaded — and verified — from memory;
//   - ciphertext and MAC corruption is meaningful only on the read path
//     (a write overwrites both), which the fault planner accounts for by
//     deferring those classes to the next read.

// InjectClass names one metadata class a fault can corrupt.
type InjectClass uint8

// Fault classes, in the order of the paper's metadata taxonomy.
const (
	// InjectCiphertext flips one bit of the accessed block's ciphertext.
	InjectCiphertext InjectClass = iota
	// InjectMAC flips one bit of the accessed block's stored MAC.
	InjectMAC
	// InjectMinor flips the accessed block's minor encryption counter.
	InjectMinor
	// InjectMajor flips the shared major counter covering the block.
	InjectMajor
	// InjectNode corrupts the integrity-tree leaf covering the block's
	// counter.
	InjectNode
	// InjectRow flips a ciphertext bit in every materialized block
	// sharing the accessed block's DRAM row (spatially correlated
	// corruption; caught by later reads or an AuditIntegrity sweep).
	InjectRow
)

// String renders the class name used in fault specs and reports.
func (cl InjectClass) String() string {
	switch cl {
	case InjectCiphertext:
		return "ciphertext"
	case InjectMAC:
		return "mac"
	case InjectMinor:
		return "minor"
	case InjectMajor:
		return "major"
	case InjectNode:
		return "node"
	case InjectRow:
		return "row"
	}
	return "unknown"
}

// Injector plans machine-level faults. Inject is consulted once per
// serviced access — seq is the 1-based access ordinal, b the accessed
// block, write the direction — and returns the classes to corrupt
// before the access proceeds. Implementations live in internal/faults;
// the controller only applies what they return.
type Injector interface {
	Inject(seq uint64, b arch.BlockID, write bool) []InjectClass
}

// SetInjector attaches (or, with nil, detaches) a fault injector.
func (c *Controller) SetInjector(inj Injector) { c.inj = inj }

// AccessSeq returns the 1-based ordinal of the last serviced access —
// the coordinate system fault plans schedule in.
func (c *Controller) AccessSeq() uint64 { return c.accessSeq }

// preAccess advances the access ordinal and applies any faults the
// injector plans for this access.
func (c *Controller) preAccess(b arch.BlockID, write bool) {
	c.accessSeq++
	if c.inj == nil {
		return
	}
	for _, cl := range c.inj.Inject(c.accessSeq, b, write) {
		c.applyFault(cl, b)
	}
}

// applyFault corrupts off-chip state for one fault class targeting the
// access to b.
func (c *Controller) applyFault(cl InjectClass, b arch.BlockID) {
	seq := c.accessSeq
	switch cl {
	case InjectCiphertext:
		c.TamperFlipBit(b, int(seq*17)%(8*arch.BlockSize))
		c.stats.FaultsInjected++
	case InjectMAC:
		c.TamperMAC(b, int(seq%64))
		c.stats.FaultsInjected++
	case InjectMinor, InjectMajor:
		cb := c.ctrs.CounterBlock(b)
		// Establish the tree's binding over the honest contents before
		// corrupting, so verification compares tampered state against
		// honest history rather than lazily adopting it.
		c.tree.VerifyCounterBlock(cb, c.ctrs.BlockBytes(cb))
		c.ctrs.CorruptCounter(b, cl == InjectMajor)
		// Drop the on-chip copy: the next counter fetch misses and walks
		// the tree over the corrupted contents.
		c.meta.Invalidate(cb)
		c.stats.FaultsInjected++
	case InjectNode:
		cb := c.ctrs.CounterBlock(b)
		leaf := c.tree.LeafRef(cb)
		c.tree.CorruptNode(leaf)
		// Drop both the counter block and the leaf node from the cache:
		// the next fetch of b's counter reloads the whole path and
		// VerifyNode sees the corruption in the same access.
		c.meta.Invalidate(cb)
		c.meta.Invalidate(c.tree.NodeBlockID(leaf))
		c.stats.FaultsInjected++
	case InjectRow:
		// Corrupt every materialized block sharing b's DRAM row, in
		// block order (map iteration must not leak into the corruption).
		c.ensureInit(b)
		row := make([]arch.BlockID, 0, 8)
		for blk := range c.store {
			if c.dram.SameRow(blk, b) {
				row = append(row, blk)
			}
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		for _, blk := range row {
			c.TamperFlipBit(blk, int(seq*13)%(8*arch.BlockSize))
			c.stats.FaultsInjected++
		}
	}
}

// AuditIntegrity MAC-checks every materialized block — the end-of-run
// integrity scrub that closes the detection window for corruption in
// blocks the workload never re-read (row faults especially). Failures
// count as tamper detections; the number of failing blocks is returned.
// The insecure baseline has no MACs and audits vacuously to zero.
func (c *Controller) AuditIntegrity() int {
	if c.cfg.Plain {
		return 0
	}
	blocks := make([]arch.BlockID, 0, len(c.store))
	for b := range c.store {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	bad := 0
	for _, b := range blocks {
		st := c.store[b]
		if c.eng.MACOf(&st.ct, b, c.ctrs.Value(b)) != st.mac {
			bad++
			c.stats.TamperDetections++
		}
	}
	return bad
}
