// Package itree implements the integrity verification trees of §IV-C of
// the paper: the hash tree (HT, an 8-ary Bonsai Merkle tree per Rogers et
// al.), the split-counter tree (SCT, per VAULT/Synergy), and the SGX
// integrity tree (SIT, 8-ary with 56-bit monolithic counters per Gueron).
//
// All trees are built over encryption counter blocks (the Bonsai
// organization), are maintained lazily — a node is updated only when its
// dirty child leaves the metadata cache — and keep their root on-chip.
// Hashes are real (computed by the crypto engine), so tampering with
// counter state or node state is genuinely detected; tests rely on this.
//
// Tree node blocks live in the arch.TreeBase region and are cacheable in
// the metadata cache exactly like counter blocks; which node blocks are
// on-chip is the controller's business (package secmem) — this package
// owns the authoritative node state and the verification/update rules
// (Algorithm 2 and the overflow handling of §IV-C).
package itree

import (
	"fmt"

	"metaleak/internal/arch"
)

// NodeRef names one tree node block by stored level (0 = leaf level) and
// index within that level.
type NodeRef struct {
	Level int
	Index int
}

// String renders the reference as e.g. "L1[42]".
func (r NodeRef) String() string { return fmt.Sprintf("L%d[%d]", r.Level, r.Index) }

// Run names N consecutive metadata blocks starting at First.
type Run struct {
	First arch.BlockID
	N     int
}

// Update reports the side effects of a lazy tree update. A nil *Update or
// one with Overflow == false means the common fast path.
type Update struct {
	// Overflow is true when a tree minor counter overflowed.
	Overflow bool
	// OverflowRef is the node whose minor overflowed.
	OverflowRef NodeRef
	// Rehashed lists the metadata blocks (node blocks and counter blocks)
	// whose hashes had to be recomputed because of the overflow — the cost
	// behind §V's write-latency bands — as runs of consecutive blocks
	// in depth-first order: each node block is a run of 1, and a leaf's
	// run is followed by one run of its counter blocks. The slice is
	// scratch owned by the tree and reused by its next overflow: callers
	// must not mutate it or keep it past that.
	Rehashed []Run
	// RehashedBlocks is the number of blocks Rehashed covers.
	RehashedBlocks int
}

// Tree is the interface the secure memory controller programs against.
type Tree interface {
	// Name returns "HT", "SCT" or "SIT".
	Name() string
	// StoredLevels returns the number of levels kept in memory (the root
	// above them is on-chip).
	StoredLevels() int
	// Arity returns the fan-in of nodes at the given stored level.
	Arity(level int) int
	// CounterBlockCapacity returns how many counter blocks the tree covers.
	CounterBlockCapacity() int
	// LeafRef returns the leaf (L0) node covering a counter block.
	LeafRef(cb arch.BlockID) NodeRef
	// Parent returns the parent node of ref, or ok=false when the parent is
	// the on-chip root.
	Parent(ref NodeRef) (parent NodeRef, ok bool)
	// NodeBlockID returns the memory block holding the node.
	NodeBlockID(ref NodeRef) arch.BlockID
	// RefOfBlock inverts NodeBlockID; ok=false if b is not a node block of
	// this tree.
	RefOfBlock(b arch.BlockID) (NodeRef, bool)
	// Path returns the node references from the leaf covering cb up to the
	// top stored level, bottom-up (the Algorithm 2 walk order). The path of
	// a counter block is static, so implementations memoize and return a
	// shared slice: callers must not mutate it.
	Path(cb arch.BlockID) []NodeRef
	// CoverageCounterBlocks returns how many counter blocks one node at the
	// level covers (the spatial coverage of Fig. 12).
	CoverageCounterBlocks(level int) int

	// VerifyCounterBlock checks a counter block's contents (as loaded from
	// memory) against the tree. False means tampering was detected.
	VerifyCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) bool
	// VerifyNode checks a node block (as loaded from memory) against its
	// parent. False means tampering was detected.
	VerifyNode(ref NodeRef) bool
	// WritebackCounterBlock performs the lazy update for a dirty counter
	// block leaving the metadata cache.
	WritebackCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) *Update
	// WritebackNode performs the lazy update for a dirty node block leaving
	// the metadata cache.
	WritebackNode(ref NodeRef) *Update

	// CorruptNode flips stored node state (tamper injection: physical
	// spoofing of a node block in memory). The node's hash is established
	// first if it never was, so a later VerifyNode compares corrupted
	// state against honest history instead of lazily adopting the
	// corruption as truth.
	CorruptNode(ref NodeRef)
}

// Hasher is the slice of the crypto engine the trees need.
type Hasher interface {
	HashBytes([]byte) uint64
}

// geometry holds the level layout shared by all tree kinds. cbOff and
// nodeOff shift the covered counter-block range and the node-block region
// respectively, so several trees (the per-domain forest of the §IX-C
// mitigation) can coexist without overlapping.
type geometry struct {
	arities []int
	counts  []int // node-block count per stored level
	bases   []int // cumulative node-block offset of each level
	nCB     int
	cbOff   int
	nodeOff int
	// pathCache memoizes path() per counter block: the walk is pure
	// address arithmetic, so the controller's per-miss tree walk need not
	// re-derive (and re-allocate) it. Callers treat paths as read-only.
	pathCache map[arch.BlockID][]NodeRef
}

func newGeometry(nCB int, arities []int) geometry {
	if nCB <= 0 || len(arities) == 0 {
		panic("itree: empty geometry")
	}
	g := geometry{arities: arities, nCB: nCB, pathCache: make(map[arch.BlockID][]NodeRef)}
	g.counts = make([]int, len(arities))
	g.bases = make([]int, len(arities))
	prev := nCB
	off := 0
	for l, a := range arities {
		if a < 2 {
			panic("itree: arity must be >= 2")
		}
		g.counts[l] = (prev + a - 1) / a
		g.bases[l] = off
		off += g.counts[l]
		prev = g.counts[l]
	}
	return g
}

func (g *geometry) treeBase() arch.BlockID { return arch.TreeBase.Block() }

func (g *geometry) cbIndex(cb arch.BlockID) int {
	idx := int(cb-arch.CounterBase.Block()) - g.cbOff
	if idx < 0 || idx >= g.nCB {
		panic(fmt.Sprintf("itree: counter block %#x outside covered region", uint64(cb)))
	}
	return idx
}

func (g *geometry) leafRef(cb arch.BlockID) NodeRef {
	return NodeRef{Level: 0, Index: g.cbIndex(cb) / g.arities[0]}
}

func (g *geometry) parent(ref NodeRef) (NodeRef, bool) {
	if ref.Level+1 >= len(g.arities) {
		return NodeRef{}, false
	}
	return NodeRef{Level: ref.Level + 1, Index: ref.Index / g.arities[ref.Level+1]}, true
}

func (g *geometry) nodeBlockID(ref NodeRef) arch.BlockID {
	return g.treeBase() + arch.BlockID(g.nodeOff+g.bases[ref.Level]+ref.Index)
}

func (g *geometry) refOfBlock(b arch.BlockID) (NodeRef, bool) {
	if !b.IsTree() {
		return NodeRef{}, false
	}
	off := int(b-g.treeBase()) - g.nodeOff
	if off < 0 {
		return NodeRef{}, false
	}
	for l := len(g.counts) - 1; l >= 0; l-- {
		if off >= g.bases[l] {
			idx := off - g.bases[l]
			if idx >= g.counts[l] {
				return NodeRef{}, false
			}
			return NodeRef{Level: l, Index: idx}, true
		}
	}
	return NodeRef{}, false
}

func (g *geometry) path(cb arch.BlockID) []NodeRef {
	if p, ok := g.pathCache[cb]; ok {
		return p
	}
	out := make([]NodeRef, 0, len(g.arities))
	ref := g.leafRef(cb)
	out = append(out, ref)
	for {
		p, ok := g.parent(ref)
		if !ok {
			g.pathCache[cb] = out
			return out
		}
		out = append(out, p)
		ref = p
	}
}

func (g *geometry) coverage(level int) int {
	c := 1
	for l := 0; l <= level && l < len(g.arities); l++ {
		c *= g.arities[l]
	}
	return c
}
