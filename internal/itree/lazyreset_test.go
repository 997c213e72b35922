package itree

import (
	"fmt"
	"testing"

	"metaleak/internal/arch"
)

// overflowTree is the slice of a version tree the differential test
// drives: VTree, Partitioned and their eager references all have it.
type overflowTree interface {
	WritebackCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) *Update
	WritebackNode(ref NodeRef) *Update
	VerifyCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) bool
	VerifyNode(ref NodeRef) bool
	CorruptNode(ref NodeRef)
	MinorValue(ref NodeRef, slot int) uint64
}

// eagerForest is Partitioned over eager domain trees. It borrows the
// forest under test for addressing only, which is pure geometry.
type eagerForest struct {
	p       *Partitioned
	domains []*eagerVTree
}

func (f *eagerForest) globalizeUpdate(d int, up *Update) *Update {
	if up != nil {
		up.OverflowRef = f.p.globalize(d, up.OverflowRef)
	}
	return up
}

func (f *eagerForest) WritebackCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) *Update {
	d := f.p.DomainOfCounterBlock(cb)
	return f.globalizeUpdate(d, f.domains[d].WritebackCounterBlock(cb, contents))
}

func (f *eagerForest) WritebackNode(ref NodeRef) *Update {
	d, local := f.p.localize(ref)
	return f.globalizeUpdate(d, f.domains[d].WritebackNode(local))
}

func (f *eagerForest) VerifyCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) bool {
	return f.domains[f.p.DomainOfCounterBlock(cb)].VerifyCounterBlock(cb, contents)
}

func (f *eagerForest) VerifyNode(ref NodeRef) bool {
	d, local := f.p.localize(ref)
	return f.domains[d].VerifyNode(local)
}

func (f *eagerForest) CorruptNode(ref NodeRef) {
	d, local := f.p.localize(ref)
	f.domains[d].CorruptNode(local)
}

func (f *eagerForest) MinorValue(ref NodeRef, slot int) uint64 {
	d, local := f.p.localize(ref)
	return f.domains[d].MinorValue(local, slot)
}

// lazyEagerPair is a tree under test, its eager reference, and their
// per-domain trees (one each for a plain VTree), so the test can read
// node state behind the interface.
type lazyEagerPair struct {
	name  string
	lazy  overflowTree
	eager overflowTree
	lt    []*VTree
	et    []*eagerVTree
	// local and global convert between the pair's scope and a domain's.
	local  func(NodeRef) (int, NodeRef)
	global func(int, NodeRef) NodeRef
	nCB    int
	counts []int // nodes per level, in the pair's scope
	arity  []int
	max    uint64
}

func newVTreePair(cfg VTreeConfig) *lazyEagerPair {
	lt, et := NewVTree(cfg, hasher()), newEagerVTree(cfg, hasher())
	return &lazyEagerPair{
		name:   fmt.Sprintf("VTree%v/%dbit/%dcb", cfg.Arities, cfg.MinorBits, cfg.CounterBlocks),
		lazy:   lt,
		eager:  et,
		lt:     []*VTree{lt},
		et:     []*eagerVTree{et},
		local:  func(ref NodeRef) (int, NodeRef) { return 0, ref },
		global: func(_ int, ref NodeRef) NodeRef { return ref },
		nCB:    cfg.CounterBlocks,
		counts: lt.geo.counts,
		arity:  cfg.Arities,
		max:    lt.MinorMax(),
	}
}

func newPartitionedPair(cfg VTreeConfig, domains int) *lazyEagerPair {
	p := NewPartitioned(cfg, domains, hasher())
	f := &eagerForest{p: p}
	for _, d := range p.domains {
		f.domains = append(f.domains, newEagerVTree(d.cfg, hasher()))
	}
	counts := make([]int, len(p.counts))
	for l, c := range p.counts {
		counts[l] = domains * c
	}
	return &lazyEagerPair{
		name:   fmt.Sprintf("Partitioned%v/%dbit/%dcb/%ddom", cfg.Arities, cfg.MinorBits, cfg.CounterBlocks, domains),
		lazy:   p,
		eager:  f,
		lt:     p.domains,
		et:     f.domains,
		local:  p.localize,
		global: p.globalize,
		nCB:    cfg.CounterBlocks,
		counts: counts,
		arity:  cfg.Arities,
		max:    p.MinorMax(),
	}
}

func sameUpdate(a, b *Update) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("update %+v, eager %+v", a, b)
	}
	if a == nil {
		return nil
	}
	if a.Overflow != b.Overflow || a.OverflowRef != b.OverflowRef || a.RehashedBlocks != b.RehashedBlocks {
		return fmt.Errorf("overflow %v at %v re-hashing %d blocks, eager %v at %v re-hashing %d",
			a.Overflow, a.OverflowRef, a.RehashedBlocks, b.Overflow, b.OverflowRef, b.RehashedBlocks)
	}
	if len(a.Rehashed) != len(b.Rehashed) {
		return fmt.Errorf("%d re-hash runs, eager %d", len(a.Rehashed), len(b.Rehashed))
	}
	for i := range a.Rehashed {
		if a.Rehashed[i] != b.Rehashed[i] {
			return fmt.Errorf("re-hash run %d = %+v, eager %+v", i, a.Rehashed[i], b.Rehashed[i])
		}
	}
	return nil
}

// sameNode compares one domain-local node's state in both trees. The
// lazy side is read through node, like every other reader of it.
func (tp *lazyEagerPair) sameNode(d int, ref NodeRef) error {
	got, want := tp.lt[d].node(ref), tp.et[d].node(ref)
	switch {
	case got.major != want.major:
		return fmt.Errorf("domain %d node %v: major %d, eager %d", d, ref, got.major, want.major)
	case got.hashSet != want.hashSet:
		return fmt.Errorf("domain %d node %v: hash set %v, eager %v", d, ref, got.hashSet, want.hashSet)
	case got.hashSet && got.hash != want.hash:
		return fmt.Errorf("domain %d node %v: hash %#x, eager %#x", d, ref, got.hash, want.hash)
	}
	for i := range want.minors {
		if got.minors[i] != want.minors[i] {
			return fmt.Errorf("domain %d node %v: minor %d = %d, eager %d", d, ref, i, got.minors[i], want.minors[i])
		}
	}
	return nil
}

// sameChain compares ref and every node above it.
func (tp *lazyEagerPair) sameChain(ref NodeRef) error {
	d, local := tp.local(ref)
	for ok := true; ok; local, ok = tp.lt[d].geo.parent(local) {
		if err := tp.sameNode(d, local); err != nil {
			return err
		}
	}
	return nil
}

// leafOf returns the leaf covering counter block i in the pair's scope.
func (tp *lazyEagerPair) leafOf(i int) NodeRef {
	d := i / (tp.nCB / len(tp.lt))
	return tp.global(d, tp.lt[d].geo.leafRef(cb(i)))
}

// lazyEagerRun applies operations to both trees and compares after each.
type lazyEagerRun struct {
	t    *testing.T
	tp   *lazyEagerPair
	step int
	op   string
	last map[int][arch.BlockSize]byte // contents last written per counter block
}

func (r *lazyEagerRun) fail(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatalf("%s, step %d, %s: %v", r.tp.name, r.step, r.op, err)
	}
}

func (r *lazyEagerRun) writebackCB(i int, contents [arch.BlockSize]byte) *Update {
	r.step++
	r.op = fmt.Sprintf("WritebackCounterBlock(%d)", i)
	r.last[i] = contents
	up := r.tp.lazy.WritebackCounterBlock(cb(i), contents)
	r.fail(sameUpdate(up, r.tp.eager.WritebackCounterBlock(cb(i), contents)))
	leaf := r.tp.leafOf(i)
	slot := i % (r.tp.nCB / len(r.tp.lt)) % r.tp.arity[0]
	if got, want := r.tp.lazy.MinorValue(leaf, slot), r.tp.eager.MinorValue(leaf, slot); got != want {
		r.fail(fmt.Errorf("leaf %v minor %d = %d, eager %d", leaf, slot, got, want))
	}
	r.fail(r.tp.sameChain(leaf))
	return up
}

func (r *lazyEagerRun) writebackNode(ref NodeRef) *Update {
	r.step++
	r.op = fmt.Sprintf("WritebackNode(%v)", ref)
	up := r.tp.lazy.WritebackNode(ref)
	r.fail(sameUpdate(up, r.tp.eager.WritebackNode(ref)))
	r.fail(r.tp.sameChain(ref))
	return up
}

func (r *lazyEagerRun) verifyCB(i int, contents [arch.BlockSize]byte) {
	r.step++
	r.op = fmt.Sprintf("VerifyCounterBlock(%d)", i)
	if got, want := r.tp.lazy.VerifyCounterBlock(cb(i), contents), r.tp.eager.VerifyCounterBlock(cb(i), contents); got != want {
		r.fail(fmt.Errorf("verified %v, eager %v", got, want))
	}
	r.fail(r.tp.sameChain(r.tp.leafOf(i)))
}

func (r *lazyEagerRun) verifyNode(ref NodeRef) {
	r.step++
	r.op = fmt.Sprintf("VerifyNode(%v)", ref)
	if got, want := r.tp.lazy.VerifyNode(ref), r.tp.eager.VerifyNode(ref); got != want {
		r.fail(fmt.Errorf("verified %v, eager %v", got, want))
	}
	r.fail(r.tp.sameChain(ref))
}

func (r *lazyEagerRun) corruptNode(ref NodeRef) {
	r.step++
	r.op = fmt.Sprintf("CorruptNode(%v)", ref)
	r.tp.lazy.CorruptNode(ref)
	r.tp.eager.CorruptNode(ref)
	r.fail(r.tp.sameChain(ref))
}

func (r *lazyEagerRun) minorValue(ref NodeRef, slot int) {
	r.step++
	r.op = fmt.Sprintf("MinorValue(%v, %d)", ref, slot)
	if got, want := r.tp.lazy.MinorValue(ref, slot), r.tp.eager.MinorValue(ref, slot); got != want {
		r.fail(fmt.Errorf("minor %d, eager %d", got, want))
	}
}

// overflowAt repeats op until it overflows at want, failing past a bound.
func (r *lazyEagerRun) overflowAt(want NodeRef, op func() *Update) {
	r.t.Helper()
	for i := uint64(0); i <= r.tp.max+1; i++ {
		if up := op(); up != nil && up.Overflow {
			if up.OverflowRef != want {
				r.fail(fmt.Errorf("overflow at %v, want %v", up.OverflowRef, want))
			}
			return
		}
	}
	r.fail(fmt.Errorf("no overflow at %v", want))
}

// nested scripts resets that nest over leaf 0 of the pair's last domain:
// the leaf, then its L2 ancestor (leaving the leaf untouched in between,
// so the leaf misses a grandparent's reset), then the leaf's L1 parent,
// then the L2 ancestor again, then the leaf is read and written.
func (r *lazyEagerRun) nested() {
	tp := r.tp
	d := len(tp.lt) - 1
	first := d * (tp.nCB / len(tp.lt)) // the domain's first counter block
	leaf := tp.global(d, NodeRef{Level: 0, Index: 0})
	nextLeaf := tp.global(d, NodeRef{Level: 0, Index: 1})
	l1 := tp.global(d, NodeRef{Level: 1, Index: 0})
	sibling := tp.global(d, NodeRef{Level: 1, Index: 1}) // l1's sibling under l2
	l2 := tp.global(d, NodeRef{Level: 2, Index: 0})
	var c [arch.BlockSize]byte
	c[0] = 1
	r.verifyCB(first, c)
	r.verifyNode(leaf)
	r.overflowAt(leaf, func() *Update { return r.writebackCB(first+1, c) })
	r.verifyNode(leaf)
	r.overflowAt(l2, func() *Update { return r.writebackNode(sibling) })
	r.minorValue(leaf, 1)
	r.verifyNode(leaf)
	r.verifyCB(first+1, c)
	r.overflowAt(l1, func() *Update { return r.writebackNode(nextLeaf) })
	r.overflowAt(l2, func() *Update { return r.writebackNode(sibling) })
	r.verifyNode(l1)
	r.verifyNode(leaf)
	r.writebackCB(first, c)
	r.verifyCB(first, c)
}

// random applies n seeded random operations over the whole tree.
func (r *lazyEagerRun) random(rng *arch.RNG, n int) {
	tp := r.tp
	randRef := func() NodeRef {
		l := rng.Intn(len(tp.counts))
		return NodeRef{Level: l, Index: rng.Intn(tp.counts[l])}
	}
	for i := 0; i < n; i++ {
		cbi := rng.Intn(tp.nCB)
		var c [arch.BlockSize]byte
		c[0], c[1] = byte(rng.Intn(4)), byte(rng.Intn(256))
		switch k := rng.Intn(100); {
		case k < 35:
			r.writebackCB(cbi, c)
		case k < 60:
			r.writebackNode(randRef())
		case k < 75:
			if last, ok := r.last[cbi]; ok && rng.Bool(0.85) {
				c = last
			}
			r.verifyCB(cbi, c)
		case k < 90:
			r.verifyNode(randRef())
		case k < 93:
			r.corruptNode(randRef())
		default:
			ref := randRef()
			r.minorValue(ref, rng.Intn(tp.arity[ref.Level]))
		}
	}
}

// final compares every node and every established counter hash.
func (r *lazyEagerRun) final() {
	r.op = "final sweep"
	for d, tr := range r.tp.lt {
		for l, c := range tr.geo.counts {
			for i := 0; i < c; i++ {
				r.fail(r.tp.sameNode(d, NodeRef{Level: l, Index: i}))
			}
		}
		got, want := r.tp.lt[d].ctrHash, r.tp.et[d].ctrHash
		if len(got) != len(want) {
			r.fail(fmt.Errorf("domain %d: %d counter hashes, eager %d", d, len(got), len(want)))
		}
		for b, h := range want {
			if got[b] != h {
				r.fail(fmt.Errorf("domain %d: counter block %#x hash %#x, eager %#x", d, uint64(b), got[b], h))
			}
		}
	}
}

// TestLazyResetMatchesEager is the differential check of the lazy subtree
// reset: VTree, directly and through Partitioned, against the eager
// reference on a scripted nest of resets and on seeded random operation
// sequences. The geometries are small with 1- and 2-bit minors, so every
// level overflows often, and ragged, so the last subtree of each level
// is partial. After every operation the Update, the minors and state of
// every node on the touched chain and every verify result must match.
func TestLazyResetMatchesEager(t *testing.T) {
	geometries := []VTreeConfig{
		// 3 L2 subtrees of 24 counter blocks, the last holding 19 in
		// 2 L1 nodes, the last of those holding a 3-block leaf.
		{Name: "SCT", Arities: []int{4, 3, 2}, MinorBits: 1, CounterBlocks: 67},
		{Name: "SCT", Arities: []int{2, 2, 2, 2}, MinorBits: 2, CounterBlocks: 45},
		{Name: "SCT", Arities: []int{4, 2, 2}, MinorBits: 1, CounterBlocks: 2 * 29},
	}
	for gi, cfg := range geometries {
		pairs := []*lazyEagerPair{newVTreePair(cfg)}
		if cfg.CounterBlocks%2 == 0 {
			pairs = append(pairs, newPartitionedPair(cfg, 2))
		}
		forest := cfg
		forest.CounterBlocks *= 2
		pairs = append(pairs, newPartitionedPair(forest, 2))
		for pi, tp := range pairs {
			t.Run(tp.name, func(t *testing.T) {
				r := &lazyEagerRun{t: t, tp: tp, last: make(map[int][arch.BlockSize]byte)}
				r.nested()
				r.random(arch.NewRNG(0x1a2e, uint64(gi), uint64(pi)), 4000)
				r.final()
			})
		}
	}
}
