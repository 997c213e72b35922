package itree

import (
	"encoding/binary"

	"metaleak/internal/arch"
)

// VTreeConfig parameterizes a version-counter tree. It covers both the
// split-counter tree (SCT: small minors that overflow, per-node major) and
// the SGX integrity tree (SIT: wide monolithic counters that never
// overflow in practice).
type VTreeConfig struct {
	Name      string // "SCT" or "SIT"
	Arities   []int  // fan-in per stored level, leaf first (SCT: 32,16,...; SIT: 8,8,8)
	MinorBits uint   // per-child version counter width (SCT: 7; SIT: 56)
	// CounterBlocks is the number of encryption counter blocks covered.
	CounterBlocks int
	// CounterBlockOffset shifts the covered counter-block range and
	// NodeBlockOffset shifts the node-block region — used by the
	// per-domain forest (Partitioned) to keep domains disjoint.
	CounterBlockOffset int
	NodeBlockOffset    int
}

// vnode is the authoritative state of one tree node block: a shared major
// counter, one version ("minor") counter per child, and the embedded hash
// that binds them to the parent's version counter for this node.
type vnode struct {
	major   uint64
	minors  []uint64
	hash    uint64
	hashSet bool
}

// VTree is a version-counter integrity tree. It implements Tree.
type VTree struct {
	cfg   VTreeConfig
	geo   geometry
	h     Hasher
	nodes []map[int]*vnode // per level, sparse
	// ctrHash holds the per-counter-block hash binding counter contents to
	// the L0 version counter (the embedded per-block hash of Fig. 4b).
	ctrHash map[arch.BlockID]uint64
	// root holds the on-chip version counters for the top stored level.
	root map[int]uint64
	// hashBuf and cbBuf are scratch buffers for hashNode/hashCounterBlock.
	// Passing a local buffer to the Hasher interface forces it to escape,
	// so a fresh allocation per hash; the tree is single-threaded like the
	// rest of the simulator, so one reusable buffer each suffices.
	hashBuf []byte
	cbBuf   [8 + arch.BlockSize]byte
	// rehashed backs Update.Rehashed, reused by every overflow.
	rehashed []Run
}

// NewVTree builds a version-counter tree.
func NewVTree(cfg VTreeConfig, h Hasher) *VTree {
	if cfg.MinorBits == 0 || cfg.MinorBits > 63 {
		panic("itree: VTree MinorBits must be in [1,63]")
	}
	geo := newGeometry(cfg.CounterBlocks, cfg.Arities)
	geo.cbOff = cfg.CounterBlockOffset
	geo.nodeOff = cfg.NodeBlockOffset
	t := &VTree{
		cfg:     cfg,
		geo:     geo,
		h:       h,
		ctrHash: make(map[arch.BlockID]uint64),
		root:    make(map[int]uint64),
	}
	t.nodes = make([]map[int]*vnode, len(cfg.Arities))
	for i := range t.nodes {
		t.nodes[i] = make(map[int]*vnode)
	}
	return t
}

// Name implements Tree.
func (t *VTree) Name() string { return t.cfg.Name }

// StoredLevels implements Tree.
func (t *VTree) StoredLevels() int { return len(t.cfg.Arities) }

// Arity implements Tree.
func (t *VTree) Arity(level int) int { return t.cfg.Arities[level] }

// CounterBlockCapacity implements Tree.
func (t *VTree) CounterBlockCapacity() int { return t.cfg.CounterBlocks }

// LeafRef implements Tree.
func (t *VTree) LeafRef(cb arch.BlockID) NodeRef { return t.geo.leafRef(cb) }

// Parent implements Tree.
func (t *VTree) Parent(ref NodeRef) (NodeRef, bool) { return t.geo.parent(ref) }

// NodeBlockID implements Tree.
func (t *VTree) NodeBlockID(ref NodeRef) arch.BlockID { return t.geo.nodeBlockID(ref) }

// RefOfBlock implements Tree.
func (t *VTree) RefOfBlock(b arch.BlockID) (NodeRef, bool) { return t.geo.refOfBlock(b) }

// Path implements Tree.
func (t *VTree) Path(cb arch.BlockID) []NodeRef { return t.geo.path(cb) }

// CoverageCounterBlocks implements Tree.
func (t *VTree) CoverageCounterBlocks(level int) int { return t.geo.coverage(level) }

// MinorMax returns the saturation value of a tree minor counter.
func (t *VTree) MinorMax() uint64 { return 1<<t.cfg.MinorBits - 1 }

func (t *VTree) node(ref NodeRef) *vnode {
	n := t.nodes[ref.Level][ref.Index]
	if n == nil {
		n = &vnode{minors: make([]uint64, t.cfg.Arities[ref.Level])}
		t.nodes[ref.Level][ref.Index] = n
	}
	return n
}

// childSlot returns the minor-counter slot inside ref's parent (or the
// on-chip root) that versions ref, along with the parent node (nil when the
// parent is the root).
func (t *VTree) childSlot(ref NodeRef) (parent *vnode, slot int, isRoot bool) {
	p, ok := t.geo.parent(ref)
	if !ok {
		return nil, ref.Index, true
	}
	return t.node(p), ref.Index % t.cfg.Arities[p.Level], false
}

// parentMinor reads the version counter that the parent currently holds
// for ref.
func (t *VTree) parentMinor(ref NodeRef) uint64 {
	parent, slot, isRoot := t.childSlot(ref)
	if isRoot {
		return t.root[slot]
	}
	return parent.minors[slot]
}

// MinorValue exposes the version counter a node holds for its child slot —
// the state MetaLeak-C presets and overflows. Attack and test use.
func (t *VTree) MinorValue(ref NodeRef, slot int) uint64 {
	return t.node(ref).minors[slot]
}

// hashNode computes the embedded hash of a node: H(parent minor ‖ major ‖
// minors), per the SCT construction in §IV-C.
func (t *VTree) hashNode(ref NodeRef, n *vnode) uint64 {
	need := 16 + 8*len(n.minors)
	if cap(t.hashBuf) < need {
		t.hashBuf = make([]byte, need)
	}
	buf := t.hashBuf[:need]
	binary.LittleEndian.PutUint64(buf[0:8], t.parentMinor(ref))
	binary.LittleEndian.PutUint64(buf[8:16], n.major)
	for i, m := range n.minors {
		binary.LittleEndian.PutUint64(buf[16+8*i:], m)
	}
	return t.h.HashBytes(buf)
}

// hashCounterBlock computes the hash binding counter-block contents to its
// L0 version counter.
func (t *VTree) hashCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) uint64 {
	leaf := t.LeafRef(cb)
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	buf := &t.cbBuf
	binary.LittleEndian.PutUint64(buf[0:8], t.node(leaf).minors[slot])
	copy(buf[8:], contents[:])
	return t.h.HashBytes(buf[:])
}

// VerifyCounterBlock implements Tree. The first-ever verification of a
// counter block lazily establishes its hash (the tree-construction-at-init
// equivalence): counters only mutate while cached, so a block can never be
// filled with contents that differ from its last writeback.
func (t *VTree) VerifyCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) bool {
	want := t.hashCounterBlock(cb, contents)
	got, ok := t.ctrHash[cb]
	if !ok {
		t.ctrHash[cb] = want
		return true
	}
	return got == want
}

// VerifyNode implements Tree (one step of Algorithm 2).
func (t *VTree) VerifyNode(ref NodeRef) bool {
	n := t.node(ref)
	want := t.hashNode(ref, n)
	if !n.hashSet {
		n.hash = want
		n.hashSet = true
		return true
	}
	return n.hash == want
}

// bumpMinor increments the version counter for ref inside its parent (or
// the root), handling overflow. It returns the overflow fallout, if any.
func (t *VTree) bumpMinor(ref NodeRef) *Update {
	parent, slot, isRoot := t.childSlot(ref)
	if isRoot {
		t.root[slot]++ // on-chip counters are wide; no overflow
		return nil
	}
	if parent.minors[slot] < t.MinorMax() {
		parent.minors[slot]++
		return nil
	}
	// Tree minor overflow (§IV-C): the node's major is incremented, its
	// minors reset, and the whole subtree under it re-hashed.
	p, _ := t.geo.parent(ref)
	up := &Update{Overflow: true, OverflowRef: p}
	t.resetSubtree(p, up)
	parent.minors[slot] = 1 // the triggering child's fresh version
	return up
}

// resetSubtree implements the overflow handling of §IV-C: the node and
// ALL its descendant node blocks have their majors incremented and minors
// reset, and every hash in the subtree must be recomputed — the hardware
// cannot skip any of them, because each child's embedded hash covers its
// parent's (now reset) version counter. The full subtree therefore counts
// as re-hash traffic, which is what makes tree-counter overflow so
// expensive and so observable (Fig. 8).
//
// State updates touch every descendant node. The subtree's counter blocks
// are one contiguous range, so their hash entries are dropped in one pass
// over the range or over ctrHash, whichever is smaller; entries that were
// never established are simply left to lazy re-initialization
// (equivalent, since their recomputed value is whatever the next fill
// observes).
func (t *VTree) resetSubtree(ref NodeRef, up *Update) {
	up.Rehashed = t.rehashed[:0]
	t.resetNodes(ref, up)
	t.rehashed = up.Rehashed

	cover := t.geo.coverage(ref.Level)
	lo := ref.Index * cover
	hi := min(lo+cover, t.geo.nCB)
	first := t.counterBlock(lo)
	end := t.counterBlock(hi)
	if len(t.ctrHash) < hi-lo {
		for cb := range t.ctrHash {
			if cb >= first && cb < end {
				delete(t.ctrHash, cb)
			}
		}
		return
	}
	for cb := first; cb < end; cb++ {
		delete(t.ctrHash, cb)
	}
}

// resetNodes resets ref and its descendant nodes depth-first, appending
// each node block and each leaf's counter blocks to up.Rehashed.
func (t *VTree) resetNodes(ref NodeRef, up *Update) {
	n := t.node(ref)
	n.major++
	for i := range n.minors {
		n.minors[i] = 0
	}
	n.hashSet = false
	up.Rehashed = append(up.Rehashed, Run{First: t.NodeBlockID(ref), N: 1})
	up.RehashedBlocks++
	if ref.Level == 0 {
		// Every counter block under this leaf node is re-hashed.
		lo := ref.Index * t.cfg.Arities[0]
		cbs := min(t.cfg.Arities[0], t.geo.nCB-lo)
		up.Rehashed = append(up.Rehashed, Run{First: t.counterBlock(lo), N: cbs})
		up.RehashedBlocks += cbs
		return
	}
	childLevel := ref.Level - 1
	a := t.cfg.Arities[ref.Level]
	for i := 0; i < a; i++ {
		childIdx := ref.Index*a + i
		if childIdx >= t.geo.counts[childLevel] {
			break
		}
		t.resetNodes(NodeRef{Level: childLevel, Index: childIdx}, up)
	}
}

// counterBlock returns the counter block at a tree-local index.
func (t *VTree) counterBlock(idx int) arch.BlockID {
	return arch.CounterBase.Block() + arch.BlockID(t.geo.cbOff+idx)
}

// WritebackCounterBlock implements Tree: the lazy update when a dirty
// counter block leaves the metadata cache. The L0 version counter for the
// block advances (possibly overflowing) and the block's hash is refreshed.
func (t *VTree) WritebackCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) *Update {
	leaf := t.LeafRef(cb)
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	n := t.node(leaf)
	var up *Update
	if n.minors[slot] < t.MinorMax() {
		n.minors[slot]++
	} else {
		up = &Update{Overflow: true, OverflowRef: leaf}
		t.resetSubtree(leaf, up)
		n.minors[slot] = 1
	}
	t.ctrHash[cb] = t.hashCounterBlock(cb, contents)
	return up
}

// WritebackNode implements Tree: the lazy update when a dirty node block
// leaves the metadata cache. The parent's version counter for this node
// advances (possibly overflowing) and the node's embedded hash is
// recomputed against the new version.
func (t *VTree) WritebackNode(ref NodeRef) *Update {
	up := t.bumpMinor(ref)
	n := t.node(ref)
	n.hash = t.hashNode(ref, n)
	n.hashSet = true
	return up
}

// CorruptNode flips the stored hash of a node — a tamper injection hook
// for tests (simulating physical replay/spoofing of a node block).
func (t *VTree) CorruptNode(ref NodeRef) {
	n := t.node(ref)
	if !n.hashSet {
		n.hash = t.hashNode(ref, n)
		n.hashSet = true
	}
	n.hash ^= 0xdeadbeef
}

// CorruptCounterHash flips the stored hash of a counter block (tamper
// injection for tests).
//
//metalint:allow deadcode fault hook for TestCounterHashCorruptionDetected
func (t *VTree) CorruptCounterHash(cb arch.BlockID) {
	if h, ok := t.ctrHash[cb]; ok {
		t.ctrHash[cb] = h ^ 0xdeadbeef
	} else {
		t.ctrHash[cb] = 0xdeadbeef
	}
}
