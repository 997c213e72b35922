package itree

import (
	"encoding/binary"

	"metaleak/internal/arch"
)

// eagerVTree is the version-counter tree with the eager subtree reset:
// an overflow creates and resets every node under the overflowing one
// before it returns. It is VTree as it was before the reset became lazy,
// kept as the reference the differential test holds VTree to.
type eagerVTree struct {
	cfg      VTreeConfig
	geo      geometry
	h        Hasher
	nodes    []map[int]*vnode
	ctrHash  map[arch.BlockID]uint64
	root     map[int]uint64
	rehashed []Run
}

func newEagerVTree(cfg VTreeConfig, h Hasher) *eagerVTree {
	geo := newGeometry(cfg.CounterBlocks, cfg.Arities)
	geo.cbOff = cfg.CounterBlockOffset
	geo.nodeOff = cfg.NodeBlockOffset
	t := &eagerVTree{
		cfg:     cfg,
		geo:     geo,
		h:       h,
		nodes:   make([]map[int]*vnode, len(cfg.Arities)),
		ctrHash: make(map[arch.BlockID]uint64),
		root:    make(map[int]uint64),
	}
	for i := range t.nodes {
		t.nodes[i] = make(map[int]*vnode)
	}
	return t
}

func (t *eagerVTree) MinorMax() uint64 { return 1<<t.cfg.MinorBits - 1 }

func (t *eagerVTree) node(ref NodeRef) *vnode {
	n := t.nodes[ref.Level][ref.Index]
	if n == nil {
		n = &vnode{minors: make([]uint64, t.cfg.Arities[ref.Level])}
		t.nodes[ref.Level][ref.Index] = n
	}
	return n
}

func (t *eagerVTree) childSlot(ref NodeRef) (parent *vnode, slot int, isRoot bool) {
	p, ok := t.geo.parent(ref)
	if !ok {
		return nil, ref.Index, true
	}
	return t.node(p), ref.Index % t.cfg.Arities[p.Level], false
}

func (t *eagerVTree) parentMinor(ref NodeRef) uint64 {
	parent, slot, isRoot := t.childSlot(ref)
	if isRoot {
		return t.root[slot]
	}
	return parent.minors[slot]
}

func (t *eagerVTree) MinorValue(ref NodeRef, slot int) uint64 {
	return t.node(ref).minors[slot]
}

func (t *eagerVTree) hashNode(ref NodeRef, n *vnode) uint64 {
	buf := make([]byte, 16+8*len(n.minors))
	binary.LittleEndian.PutUint64(buf[0:8], t.parentMinor(ref))
	binary.LittleEndian.PutUint64(buf[8:16], n.major)
	for i, m := range n.minors {
		binary.LittleEndian.PutUint64(buf[16+8*i:], m)
	}
	return t.h.HashBytes(buf)
}

func (t *eagerVTree) hashCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) uint64 {
	leaf := t.geo.leafRef(cb)
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	var buf [8 + arch.BlockSize]byte
	binary.LittleEndian.PutUint64(buf[0:8], t.node(leaf).minors[slot])
	copy(buf[8:], contents[:])
	return t.h.HashBytes(buf[:])
}

func (t *eagerVTree) VerifyCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) bool {
	want := t.hashCounterBlock(cb, contents)
	got, ok := t.ctrHash[cb]
	if !ok {
		t.ctrHash[cb] = want
		return true
	}
	return got == want
}

func (t *eagerVTree) VerifyNode(ref NodeRef) bool {
	n := t.node(ref)
	want := t.hashNode(ref, n)
	if !n.hashSet {
		n.hash = want
		n.hashSet = true
		return true
	}
	return n.hash == want
}

func (t *eagerVTree) bumpMinor(ref NodeRef) *Update {
	parent, slot, isRoot := t.childSlot(ref)
	if isRoot {
		t.root[slot]++
		return nil
	}
	if parent.minors[slot] < t.MinorMax() {
		parent.minors[slot]++
		return nil
	}
	p, _ := t.geo.parent(ref)
	up := &Update{Overflow: true, OverflowRef: p}
	t.resetSubtree(p, up)
	parent.minors[slot] = 1
	return up
}

func (t *eagerVTree) resetSubtree(ref NodeRef, up *Update) {
	up.Rehashed = t.rehashed[:0]
	t.resetNodes(ref, up)
	t.rehashed = up.Rehashed
	cover := t.geo.coverage(ref.Level)
	lo := ref.Index * cover
	hi := min(lo+cover, t.geo.nCB)
	for cb := t.counterBlock(lo); cb < t.counterBlock(hi); cb++ {
		delete(t.ctrHash, cb)
	}
}

// resetNodes resets ref and its descendant nodes depth-first, appending
// each node block and each leaf's counter blocks to up.Rehashed.
func (t *eagerVTree) resetNodes(ref NodeRef, up *Update) {
	n := t.node(ref)
	n.major++
	for i := range n.minors {
		n.minors[i] = 0
	}
	n.hashSet = false
	up.Rehashed = append(up.Rehashed, Run{First: t.geo.nodeBlockID(ref), N: 1})
	up.RehashedBlocks++
	if ref.Level == 0 {
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

func (t *eagerVTree) counterBlock(idx int) arch.BlockID {
	return arch.CounterBase.Block() + arch.BlockID(t.geo.cbOff+idx)
}

func (t *eagerVTree) WritebackCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) *Update {
	leaf := t.geo.leafRef(cb)
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

func (t *eagerVTree) WritebackNode(ref NodeRef) *Update {
	up := t.bumpMinor(ref)
	n := t.node(ref)
	n.hash = t.hashNode(ref, n)
	n.hashSet = true
	return up
}

func (t *eagerVTree) CorruptNode(ref NodeRef) {
	n := t.node(ref)
	if !n.hashSet {
		n.hash = t.hashNode(ref, n)
		n.hashSet = true
	}
	n.hash ^= 0xdeadbeef
}
