package itree

import (
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
	"metaleak/internal/crypto"
)

func hasher() Hasher {
	return crypto.New(crypto.Config{HashLatency: 12})
}

func cb(i int) arch.BlockID { return arch.CounterBase.Block() + arch.BlockID(i) }

func newSCT(nCB int) *VTree {
	return NewVTree(VTreeConfig{
		Name: "SCT", Arities: []int{32, 16, 16}, MinorBits: 7, CounterBlocks: nCB,
	}, hasher())
}

func newSIT(nCB int) *VTree {
	return NewVTree(VTreeConfig{
		Name: "SIT", Arities: []int{8, 8, 8}, MinorBits: 56, CounterBlocks: nCB,
	}, hasher())
}

func newHT(nCB int) *HTree {
	return NewHTree(HTreeConfig{Arities: []int{8, 8, 8}, CounterBlocks: nCB}, hasher())
}

func TestGeometryCounts(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	if tr.StoredLevels() != 3 {
		t.Fatalf("levels = %d", tr.StoredLevels())
	}
	want := []int{16 * 16, 16, 1}
	for l, w := range want {
		if tr.geo.counts[l] != w {
			t.Fatalf("level %d count = %d want %d", l, tr.geo.counts[l], w)
		}
	}
}

func TestPathBottomUp(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	path := tr.Path(cb(33)) // leaf index 1
	if len(path) != 3 {
		t.Fatalf("path length = %d", len(path))
	}
	if path[0] != (NodeRef{0, 1}) || path[1] != (NodeRef{1, 0}) || path[2] != (NodeRef{2, 0}) {
		t.Fatalf("path = %v", path)
	}
	// The counter blocks under one leaf share one memoized path.
	if other := tr.Path(cb(63)); &other[0] != &path[0] || len(tr.geo.pathCache) != 1 {
		t.Fatalf("leaf 1's counter blocks hold %d memoized paths", len(tr.geo.pathCache))
	}
}

func TestNodeBlockAddressingRoundTrip(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	for _, ref := range []NodeRef{{0, 0}, {0, 255}, {1, 15}, {2, 0}} {
		b := tr.NodeBlockID(ref)
		if !b.IsTree() {
			t.Fatalf("%v not in tree region", ref)
		}
		got, ok := tr.RefOfBlock(b)
		if !ok || got != ref {
			t.Fatalf("round trip %v -> %v (%v)", ref, got, ok)
		}
	}
	if _, ok := tr.RefOfBlock(arch.BlockID(5)); ok {
		t.Fatal("data block resolved as tree node")
	}
}

func TestCoverage(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	if tr.CoverageCounterBlocks(0) != 32 {
		t.Fatalf("L0 coverage = %d", tr.CoverageCounterBlocks(0))
	}
	if tr.CoverageCounterBlocks(1) != 32*16 {
		t.Fatalf("L1 coverage = %d", tr.CoverageCounterBlocks(1))
	}
}

func TestVerifyAfterWritebackHonest(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var contents [arch.BlockSize]byte
	contents[0] = 1
	if !tr.VerifyCounterBlock(cb(0), contents) {
		t.Fatal("lazy first verify rejected")
	}
	// A writeback with new contents, then verification of those contents.
	contents[0] = 2
	if up := tr.WritebackCounterBlock(cb(0), contents); up != nil {
		t.Fatal("unexpected overflow on first writeback")
	}
	if !tr.VerifyCounterBlock(cb(0), contents) {
		t.Fatal("verify rejected honest contents after writeback")
	}
}

func TestVerifyDetectsStaleCounterBlock(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var v1, v2 [arch.BlockSize]byte
	v1[0], v2[0] = 1, 2
	tr.VerifyCounterBlock(cb(0), v1) // establish
	tr.WritebackCounterBlock(cb(0), v2)
	// Replaying the stale contents must fail (replay detection).
	if tr.VerifyCounterBlock(cb(0), v1) {
		t.Fatal("replayed counter block accepted")
	}
}

func TestVerifyNodeDetectsCorruption(t *testing.T) {
	for _, tr := range []Tree{newSCT(32 * 16 * 16), newSIT(512), Tree(newHT(512))} {
		ref := NodeRef{0, 0}
		if !tr.VerifyNode(ref) {
			t.Fatalf("%s: lazy node verify rejected", tr.Name())
		}
		switch tt := tr.(type) {
		case *VTree:
			tt.CorruptNode(ref)
		case *HTree:
			// Corrupt the stored child-hash and then check the node via its
			// parent after a writeback (HT corruption surfaces one level up).
			tt.WritebackNode(ref)
			tt.CorruptNode(ref)
			if tt.VerifyNode(ref) {
				t.Fatal("HT: corrupted node accepted")
			}
			continue
		}
		if tr.VerifyNode(ref) {
			t.Fatalf("%s: corrupted node accepted", tr.Name())
		}
	}
}

func TestCounterHashCorruptionDetected(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var contents [arch.BlockSize]byte
	tr.VerifyCounterBlock(cb(3), contents)
	tr.CorruptCounterHash(cb(3))
	if tr.VerifyCounterBlock(cb(3), contents) {
		t.Fatal("corrupted counter hash accepted")
	}
}

func TestLazyMinorIncrementPerWriteback(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var contents [arch.BlockSize]byte
	leaf := tr.LeafRef(cb(5))
	for i := 1; i <= 3; i++ {
		tr.WritebackCounterBlock(cb(5), contents)
		if got := tr.MinorValue(leaf, 5); got != uint64(i) {
			t.Fatalf("after %d writebacks minor = %d", i, got)
		}
	}
	// A different counter block under the same leaf uses its own slot.
	tr.WritebackCounterBlock(cb(6), contents)
	if tr.MinorValue(leaf, 5) != 3 || tr.MinorValue(leaf, 6) != 1 {
		t.Fatal("minor slots not independent")
	}
}

func TestTreeMinorOverflowResetsSubtree(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var contents [arch.BlockSize]byte
	leaf := tr.LeafRef(cb(0))
	var up *Update
	for i := uint64(0); i <= tr.MinorMax(); i++ {
		up = tr.WritebackCounterBlock(cb(0), contents)
	}
	if up == nil || !up.Overflow {
		t.Fatalf("no overflow after %d writebacks", tr.MinorMax()+1)
	}
	if up.OverflowRef != leaf {
		t.Fatalf("overflow at %v want %v", up.OverflowRef, leaf)
	}
	checkRehashed(t, tr, leaf, up)
	if tr.MinorValue(leaf, 0) != 1 {
		t.Fatalf("triggering minor after overflow = %d", tr.MinorValue(leaf, 0))
	}
	// The node and its content remain verifiable after the reset.
	if !tr.VerifyCounterBlock(cb(0), contents) {
		t.Fatal("post-overflow verification of triggering block failed")
	}
}

// naiveRehash enumerates, one block at a time, what an overflow at ref
// must re-hash: the node block, then a leaf's counter blocks or each
// child's subtree in turn, depth-first.
func naiveRehash(tr *VTree, ref NodeRef) []arch.BlockID {
	out := []arch.BlockID{tr.NodeBlockID(ref)}
	if ref.Level == 0 {
		for i := 0; i < tr.Arity(0); i++ {
			idx := ref.Index*tr.Arity(0) + i
			if idx >= tr.CounterBlockCapacity() {
				break
			}
			out = append(out, cb(tr.cfg.CounterBlockOffset+idx))
		}
		return out
	}
	a := tr.Arity(ref.Level)
	for i := 0; i < a; i++ {
		child := NodeRef{Level: ref.Level - 1, Index: ref.Index*a + i}
		if child.Index*tr.CoverageCounterBlocks(child.Level) >= tr.CounterBlockCapacity() {
			break
		}
		out = append(out, naiveRehash(tr, child)...)
	}
	return out
}

// checkRehashed expands an overflow's re-hash runs and compares them,
// block for block, with the naive enumeration of the subtree under the
// domain-local node ref. It also checks the run shape: node blocks are
// runs of 1, each followed for a leaf by one run of its counter blocks.
func checkRehashed(t *testing.T, tr *VTree, ref NodeRef, up *Update) {
	t.Helper()
	var got []arch.BlockID
	for i, r := range up.Rehashed {
		switch {
		case r.N < 1:
			t.Fatalf("run %d is empty: %+v", i, r)
		case r.First.IsTree() && r.N != 1:
			t.Fatalf("node run %d has length %d", i, r.N)
		case r.First.IsCounter() && (i == 0 || !up.Rehashed[i-1].First.IsTree()):
			t.Fatalf("counter run %d does not follow its leaf", i)
		}
		for j := 0; j < r.N; j++ {
			got = append(got, r.First+arch.BlockID(j))
		}
	}
	want := naiveRehash(tr, ref)
	if len(got) != len(want) || up.RehashedBlocks != len(want) {
		t.Fatalf("re-hashed %d blocks (count %d), want %d", len(got), up.RehashedBlocks, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("re-hash block %d = %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
		}
	}
}

func TestL2OverflowRehashSequence(t *testing.T) {
	// Two L2 subtrees, the second one ragged: 5 full leaves plus a leaf
	// of 7 counter blocks, so the enumeration's truncation paths run.
	nCB := 32*16*16 + 32*5 + 7
	tr := NewVTree(VTreeConfig{
		Name: "SCT", Arities: []int{32, 16, 16, 16}, MinorBits: 7, CounterBlocks: nCB,
	}, hasher())
	for _, l2 := range []NodeRef{{Level: 2, Index: 0}, {Level: 2, Index: 1}} {
		l1 := NodeRef{Level: 1, Index: l2.Index * 16}
		var up *Update
		for i := uint64(0); i <= tr.MinorMax(); i++ {
			up = tr.WritebackNode(l1)
		}
		if up == nil || !up.Overflow || up.OverflowRef != l2 {
			t.Fatalf("%v: no overflow at the L2 node: %+v", l2, up)
		}
		checkRehashed(t, tr, l2, up)
	}
}

func TestOverflowDropsSubtreeCounterHashes(t *testing.T) {
	// Both invalidation passes: a leaf overflow with more established
	// hashes than the leaf covers walks the range; an L2 overflow with
	// fewer walks the map. Either way exactly the subtree's hashes go.
	var contents [arch.BlockSize]byte
	manyHashes := []int{0, 31, 32, 33, 63, 64}
	for i := 100; i < 4000; i += 100 {
		manyHashes = append(manyHashes, i)
	}
	for _, tc := range []struct {
		name     string
		ref      NodeRef
		trigger  func(tr *VTree) *Update
		verified []int
	}{
		{"leaf", NodeRef{Level: 0, Index: 1}, func(tr *VTree) *Update {
			return tr.WritebackCounterBlock(cb(40), contents)
		}, manyHashes},
		{"L2", NodeRef{Level: 2, Index: 0}, func(tr *VTree) *Update {
			return tr.WritebackNode(NodeRef{Level: 1, Index: 3})
		}, []int{0, 511, 8191, 8192, 9000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewVTree(VTreeConfig{
				Name: "SCT", Arities: []int{32, 16, 16, 16}, MinorBits: 1, CounterBlocks: 2 * 32 * 16 * 16,
			}, hasher())
			tc.trigger(tr)
			for _, i := range tc.verified {
				tr.VerifyCounterBlock(cb(i), contents)
			}
			if up := tc.trigger(tr); up == nil || up.OverflowRef != tc.ref {
				t.Fatalf("no overflow at %v: %+v", tc.ref, up)
			}
			cover := tr.CoverageCounterBlocks(tc.ref.Level)
			lo, hi := tc.ref.Index*cover, (tc.ref.Index+1)*cover
			for _, i := range tc.verified {
				_, kept := tr.ctrHash[cb(i)]
				if inside := i >= lo && i < hi; kept == inside {
					t.Errorf("counter block %d (subtree [%d,%d)): hash kept = %v", i, lo, hi, kept)
				}
			}
		})
	}
}

func TestNodeWritebackPropagatesUp(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	l1 := NodeRef{1, 0}
	if tr.MinorValue(l1, 0) != 0 {
		t.Fatal("dirty world")
	}
	tr.WritebackNode(NodeRef{0, 0})
	if tr.MinorValue(l1, 0) != 1 {
		t.Fatalf("L1 minor = %d after L0 writeback", tr.MinorValue(l1, 0))
	}
	// Node verifies against the updated parent version.
	if !tr.VerifyNode(NodeRef{0, 0}) {
		t.Fatal("node stale after its own writeback")
	}
}

func TestSITWideCountersDoNotOverflow(t *testing.T) {
	tr := newSIT(512)
	var contents [arch.BlockSize]byte
	for i := 0; i < 300; i++ {
		if up := tr.WritebackCounterBlock(cb(0), contents); up != nil {
			t.Fatal("56-bit counter overflowed in 300 writebacks")
		}
	}
}

func TestHTNoOverflowEver(t *testing.T) {
	tr := newHT(512)
	var contents [arch.BlockSize]byte
	for i := 0; i < 200; i++ {
		if up := tr.WritebackCounterBlock(cb(1), contents); up != nil {
			t.Fatal("hash tree reported an overflow")
		}
	}
}

func TestHTDetectsReplayedCounterBlock(t *testing.T) {
	tr := newHT(512)
	var v1, v2 [arch.BlockSize]byte
	v1[0], v2[0] = 1, 2
	tr.VerifyCounterBlock(cb(0), v1)
	tr.WritebackCounterBlock(cb(0), v2)
	if tr.VerifyCounterBlock(cb(0), v1) {
		t.Fatal("HT accepted replayed counter block")
	}
	if !tr.VerifyCounterBlock(cb(0), v2) {
		t.Fatal("HT rejected fresh counter block")
	}
}

// Property: Path always starts at the leaf covering cb, is strictly
// increasing in level, and every consecutive pair is child/parent.
func TestQuickPathWellFormed(t *testing.T) {
	trees := []Tree{newSCT(32 * 16 * 16), newSIT(512), newHT(512)}
	for _, tr := range trees {
		tr := tr
		f := func(raw uint16) bool {
			idx := int(raw) % tr.CounterBlockCapacity()
			p := tr.Path(cb(idx))
			if len(p) != tr.StoredLevels() {
				return false
			}
			if p[0] != tr.LeafRef(cb(idx)) {
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				parent, ok := tr.Parent(p[i])
				if !ok || parent != p[i+1] {
					return false
				}
			}
			_, ok := tr.Parent(p[len(p)-1])
			return !ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
}

// Property: writeback-then-verify always succeeds for arbitrary contents
// sequences (the no-false-positive requirement of integrity checking).
func TestQuickWritebackVerifyNoFalsePositives(t *testing.T) {
	trees := []Tree{newSCT(32 * 16), newSIT(512), newHT(512)}
	for _, tr := range trees {
		tr := tr
		f := func(raw uint16, c [arch.BlockSize]byte) bool {
			idx := int(raw) % tr.CounterBlockCapacity()
			tr.WritebackCounterBlock(cb(idx), c)
			return tr.VerifyCounterBlock(cb(idx), c)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
}

func TestOutOfRangeCounterBlockPanics(t *testing.T) {
	tr := newSCT(32)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range counter block")
		}
	}()
	tr.LeafRef(cb(32))
}

func TestTreeInterfaceAccessorsAllKinds(t *testing.T) {
	trees := []Tree{
		newSCT(32 * 16 * 16),
		newSIT(512),
		newHT(512),
		NewPartitioned(VTreeConfig{
			Name: "SCT", Arities: []int{32, 16}, MinorBits: 7, CounterBlocks: 2 * 32 * 16,
		}, 2, hasher()),
	}
	for _, tr := range trees {
		if tr.Name() == "" {
			t.Fatal("empty tree name")
		}
		if tr.StoredLevels() < 2 || tr.Arity(0) < 2 {
			t.Fatalf("%s: degenerate geometry", tr.Name())
		}
		if tr.CounterBlockCapacity() <= 0 {
			t.Fatalf("%s: no capacity", tr.Name())
		}
		if tr.CoverageCounterBlocks(0) != tr.Arity(0) {
			t.Fatalf("%s: leaf coverage != arity", tr.Name())
		}
		// Leaf/parent/path/block addressing agree for an arbitrary block.
		probe := cb(tr.CounterBlockCapacity() / 2)
		leaf := tr.LeafRef(probe)
		if tr.Path(probe)[0] != leaf {
			t.Fatalf("%s: path head != leaf", tr.Name())
		}
		nb := tr.NodeBlockID(leaf)
		if got, ok := tr.RefOfBlock(nb); !ok || got != leaf {
			t.Fatalf("%s: block addressing broken", tr.Name())
		}
		if _, ok := tr.RefOfBlock(arch.BlockID(1)); ok {
			t.Fatalf("%s: data block resolved as node", tr.Name())
		}
		parent, ok := tr.Parent(leaf)
		if !ok || parent.Level != 1 {
			t.Fatalf("%s: leaf parent wrong: %v %v", tr.Name(), parent, ok)
		}
		if leaf.String() == "" {
			t.Fatal("empty ref string")
		}
	}
}

func TestHTCorruptCounterHashDetected(t *testing.T) {
	tr := newHT(512)
	var contents [arch.BlockSize]byte
	contents[0] = 9
	tr.WritebackCounterBlock(cb(7), contents)
	if !tr.VerifyCounterBlock(cb(7), contents) {
		t.Fatal("honest verify failed")
	}
	tr.CorruptCounterHash(cb(7))
	if tr.VerifyCounterBlock(cb(7), contents) {
		t.Fatal("corrupted leaf hash accepted")
	}
}

func TestHTRootVerification(t *testing.T) {
	tr := newHT(512)
	top := NodeRef{Level: 2, Index: 0}
	// Fresh top node verifies against the constant init hash.
	if !tr.VerifyNode(top) {
		t.Fatal("initial top node rejected")
	}
	// After a writeback the root updates; verification still passes...
	tr.WritebackNode(NodeRef{Level: 1, Index: 0})
	tr.WritebackNode(top)
	if !tr.VerifyNode(top) {
		t.Fatal("top node rejected after writeback")
	}
	// ...until the node contents are tampered.
	tr.CorruptNode(top)
	if tr.VerifyNode(top) {
		t.Fatal("tampered top node accepted")
	}
}

func TestPartitionedInterfaceThroughControllerPath(t *testing.T) {
	// Partitioned writeback/verify round trip for a node (the secmem
	// integration path).
	p := NewPartitioned(VTreeConfig{
		Name: "SCT", Arities: []int{32, 16}, MinorBits: 7, CounterBlocks: 2 * 32 * 16,
	}, 2, hasher())
	ref := p.LeafRef(cb(40)) // domain 0
	if up := p.WritebackNode(ref); up != nil {
		t.Fatal("unexpected overflow")
	}
	if !p.VerifyNode(ref) {
		t.Fatal("node stale after writeback")
	}
	// Second-domain node addressing is disjoint and consistent.
	ref2 := p.LeafRef(cb(512 + 40))
	if p.NodeBlockID(ref2) == p.NodeBlockID(ref) {
		t.Fatal("cross-domain node collision")
	}
}
