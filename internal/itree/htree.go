package itree

import (
	"encoding/binary"

	"metaleak/internal/arch"
)

// HTreeConfig parameterizes the hash tree (8-ary Bonsai Merkle tree over
// encryption counter blocks, the HT configuration of Table I).
type HTreeConfig struct {
	Arities       []int // Table I: six levels of arity 8
	CounterBlocks int
	// InitCounterBlock is the initial (pre-first-write) serialization of a
	// counter block; all schemes in this repository zero-initialize, so
	// the zero value is correct.
	InitCounterBlock [arch.BlockSize]byte
}

// hnode is one hash-tree node block: one hash per child. Nodes materialize
// fully initialized (the tree is conceptually built over the zeroed secure
// region at setup time), so verification never mutates state — the
// property that keeps parent hashes consistent with child contents.
type hnode struct {
	hashes []uint64
}

// HTree is the hash-based integrity tree. It implements Tree. Hash trees
// have no counters, hence no overflow: WritebackNode/WritebackCounterBlock
// always return nil Updates — the absence MetaLeak-C exploits in SCT is
// structural here, which the ablation benchmarks demonstrate.
type HTree struct {
	cfg   HTreeConfig
	geo   geometry
	h     Hasher
	nodes []map[int]*hnode
	root  map[int]uint64 // on-chip hashes of the top stored level
	// initHash[l] is the hash every level-l entry starts with: the hash of
	// a fully-initialized child (counter block for l == 0, child node
	// block otherwise). Constant per level because the whole region
	// zero-initializes.
	initHash []uint64
	// hashBuf and cbBuf are scratch buffers for node serialization and
	// counter-block hashing: a stack buffer passed to the Hasher interface
	// escapes, costing an allocation per hash. Single-threaded by design.
	hashBuf []byte
	cbBuf   [arch.BlockSize]byte
}

// NewHTree builds a hash tree.
func NewHTree(cfg HTreeConfig, h Hasher) *HTree {
	t := &HTree{
		cfg:  cfg,
		geo:  newGeometry(cfg.CounterBlocks, cfg.Arities),
		h:    h,
		root: make(map[int]uint64),
	}
	t.nodes = make([]map[int]*hnode, len(cfg.Arities))
	for i := range t.nodes {
		t.nodes[i] = make(map[int]*hnode)
	}
	t.initHash = make([]uint64, len(cfg.Arities)+1)
	t.initHash[0] = h.HashBytes(cfg.InitCounterBlock[:])
	for l := 0; l < len(cfg.Arities); l++ {
		n := &hnode{hashes: make([]uint64, cfg.Arities[l])}
		for i := range n.hashes {
			n.hashes[i] = t.initHash[l]
		}
		t.initHash[l+1] = h.HashBytes(n.bytes())
	}
	return t
}

// Name implements Tree.
func (t *HTree) Name() string { return "HT" }

// StoredLevels implements Tree.
func (t *HTree) StoredLevels() int { return len(t.cfg.Arities) }

// Arity implements Tree.
func (t *HTree) Arity(level int) int { return t.cfg.Arities[level] }

// CounterBlockCapacity implements Tree.
func (t *HTree) CounterBlockCapacity() int { return t.cfg.CounterBlocks }

// LeafRef implements Tree.
func (t *HTree) LeafRef(cb arch.BlockID) NodeRef { return t.geo.leafRef(cb) }

// Parent implements Tree.
func (t *HTree) Parent(ref NodeRef) (NodeRef, bool) { return t.geo.parent(ref) }

// NodeBlockID implements Tree.
func (t *HTree) NodeBlockID(ref NodeRef) arch.BlockID { return t.geo.nodeBlockID(ref) }

// RefOfBlock implements Tree.
func (t *HTree) RefOfBlock(b arch.BlockID) (NodeRef, bool) { return t.geo.refOfBlock(b) }

// Path implements Tree.
func (t *HTree) Path(cb arch.BlockID) []NodeRef { return t.geo.path(cb) }

// CoverageCounterBlocks implements Tree.
func (t *HTree) CoverageCounterBlocks(level int) int { return t.geo.coverage(level) }

func (t *HTree) node(ref NodeRef) *hnode {
	n := t.nodes[ref.Level][ref.Index]
	if n == nil {
		a := t.cfg.Arities[ref.Level]
		n = &hnode{hashes: make([]uint64, a)}
		for i := range n.hashes {
			n.hashes[i] = t.initHash[ref.Level]
		}
		t.nodes[ref.Level][ref.Index] = n
	}
	return n
}

// bytes serializes a node block for hashing by its parent.
func (n *hnode) bytes() []byte {
	buf := make([]byte, 8*len(n.hashes))
	for i, h := range n.hashes {
		binary.LittleEndian.PutUint64(buf[8*i:], h)
	}
	return buf
}

// hashOfNode computes the hash of a node block's contents, serializing
// into the tree's scratch buffer.
func (t *HTree) hashOfNode(ref NodeRef) uint64 {
	n := t.node(ref)
	need := 8 * len(n.hashes)
	if cap(t.hashBuf) < need {
		t.hashBuf = make([]byte, need)
	}
	buf := t.hashBuf[:need]
	for i, h := range n.hashes {
		binary.LittleEndian.PutUint64(buf[8*i:], h)
	}
	return t.h.HashBytes(buf)
}

// hashCounterContents hashes a counter block's raw contents via the
// scratch buffer (a 64-byte copy instead of a 64-byte heap escape).
func (t *HTree) hashCounterContents(contents [arch.BlockSize]byte) uint64 {
	t.cbBuf = contents
	return t.h.HashBytes(t.cbBuf[:])
}

// VerifyCounterBlock implements Tree: the leaf hash must match
// H(contents). Verification never mutates tree state.
func (t *HTree) VerifyCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) bool {
	leaf := t.node(t.LeafRef(cb))
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	return leaf.hashes[slot] == t.hashCounterContents(contents)
}

// VerifyNode implements Tree: a node block is checked against the hash its
// parent (or the on-chip root) holds for it.
func (t *HTree) VerifyNode(ref NodeRef) bool {
	want := t.hashOfNode(ref)
	p, ok := t.geo.parent(ref)
	if !ok {
		if got, present := t.root[ref.Index]; present {
			return got == want
		}
		return t.initHash[len(t.cfg.Arities)] == want
	}
	pn := t.node(p)
	slot := ref.Index % t.cfg.Arities[p.Level]
	return pn.hashes[slot] == want
}

// WritebackCounterBlock implements Tree: refresh the leaf hash. Hash trees
// never overflow, so the Update is always nil.
func (t *HTree) WritebackCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) *Update {
	leaf := t.node(t.LeafRef(cb))
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	leaf.hashes[slot] = t.hashCounterContents(contents)
	return nil
}

// WritebackNode implements Tree: refresh the parent's (or root's) hash of
// this node.
func (t *HTree) WritebackNode(ref NodeRef) *Update {
	want := t.hashOfNode(ref)
	p, ok := t.geo.parent(ref)
	if !ok {
		t.root[ref.Index] = want
		return nil
	}
	pn := t.node(p)
	slot := ref.Index % t.cfg.Arities[p.Level]
	pn.hashes[slot] = want
	return nil
}

// CorruptNode flips one hash entry in a node (tamper injection for tests).
func (t *HTree) CorruptNode(ref NodeRef) {
	t.node(ref).hashes[0] ^= 0xdeadbeef
}

// CorruptCounterHash flips the leaf hash covering the counter block
// (tamper injection for tests).
//
//metalint:allow deadcode fault hook for TestHTCorruptCounterHashDetected
func (t *HTree) CorruptCounterHash(cb arch.BlockID) {
	leaf := t.node(t.LeafRef(cb))
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	leaf.hashes[slot] ^= 0xdeadbeef
}
