package itree

import (
	"testing"

	"metaleak/internal/arch"
)

func newForest(nCB, domains int) *Partitioned {
	return NewPartitioned(VTreeConfig{
		Name: "SCT", Arities: []int{32, 16, 16}, MinorBits: 7, CounterBlocks: nCB,
	}, domains, hasher())
}

func TestPartitionedGeometryDisjoint(t *testing.T) {
	p := newForest(4*32*16*16, 4)
	if p.Domains() != 4 {
		t.Fatalf("domains = %d", p.Domains())
	}
	// Node blocks of different domains never collide.
	seen := make(map[arch.BlockID]int)
	for d := 0; d < 4; d++ {
		cb := arch.CounterBase.Block() + arch.BlockID(d*p.sliceCB)
		for _, ref := range p.Path(cb) {
			nb := p.NodeBlockID(ref)
			if prev, ok := seen[nb]; ok && prev != d {
				t.Fatalf("node block %#x shared by domains %d and %d", uint64(nb), prev, d)
			}
			seen[nb] = d
		}
	}
}

func TestPartitionedNoSharedNodesAcrossDomains(t *testing.T) {
	// The security property of §IX-C: two counter blocks in different
	// domains share NO tree node at ANY level.
	p := newForest(2*32*16*16, 2)
	cbA := arch.CounterBase.Block() + arch.BlockID(0)
	cbB := arch.CounterBase.Block() + arch.BlockID(p.sliceCB) // other domain
	pathA, pathB := p.Path(cbA), p.Path(cbB)
	inA := make(map[NodeRef]bool)
	for _, r := range pathA {
		inA[r] = true
	}
	for _, r := range pathB {
		if inA[r] {
			t.Fatalf("node %v shared across domains", r)
		}
	}
	// Whereas within one domain, the top node IS shared.
	cbA2 := cbA + 1
	if p.Path(cbA2)[len(pathA)-1] != pathA[len(pathA)-1] {
		t.Fatal("same-domain blocks no longer share their top node")
	}
}

func TestPartitionedRefRoundTrip(t *testing.T) {
	p := newForest(4*32*16*16, 4)
	for d := 0; d < 4; d++ {
		cb := arch.CounterBase.Block() + arch.BlockID(d*p.sliceCB+7)
		for _, ref := range p.Path(cb) {
			nb := p.NodeBlockID(ref)
			got, ok := p.RefOfBlock(nb)
			if !ok || got != ref {
				t.Fatalf("round trip %v -> %#x -> %v (%v)", ref, uint64(nb), got, ok)
			}
		}
	}
}

func TestPartitionedVerifyAndWriteback(t *testing.T) {
	p := newForest(2*32*16, 2)
	var c1, c2 [arch.BlockSize]byte
	c1[0], c2[0] = 1, 2
	cbA := arch.CounterBase.Block() + arch.BlockID(3)
	cbB := arch.CounterBase.Block() + arch.BlockID(p.sliceCB+3)
	p.WritebackCounterBlock(cbA, c1)
	p.WritebackCounterBlock(cbB, c2)
	if !p.VerifyCounterBlock(cbA, c1) || !p.VerifyCounterBlock(cbB, c2) {
		t.Fatal("honest verification failed")
	}
	// Replay detection still works per domain.
	p.WritebackCounterBlock(cbA, c2)
	if p.VerifyCounterBlock(cbA, c1) {
		t.Fatal("replay accepted in partitioned tree")
	}
}

func TestPartitionedOverflowStaysInDomain(t *testing.T) {
	p := newForest(2*32*16, 2)
	var contents [arch.BlockSize]byte
	cbA := arch.CounterBase.Block() + arch.BlockID(0)
	var up *Update
	for i := uint64(0); i <= p.domains[0].MinorMax(); i++ {
		up = p.WritebackCounterBlock(cbA, contents)
	}
	if up == nil || !up.Overflow {
		t.Fatal("no overflow")
	}
	// Every re-hashed block must belong to domain 0's slice.
	for _, r := range up.Rehashed {
		for b := r.First; b < r.First+arch.BlockID(r.N); b++ {
			if b.IsCounter() {
				if p.DomainOfCounterBlock(b) != 0 {
					t.Fatalf("re-hash crossed domains: counter block %#x", uint64(b))
				}
			} else if ref, ok := p.RefOfBlock(b); !ok {
				t.Fatalf("re-hashed unknown block %#x", uint64(b))
			} else if d, _ := p.localize(ref); d != 0 {
				t.Fatalf("re-hash crossed domains: node %v", ref)
			}
		}
	}
}

func TestPartitionedOverflowRehashSequence(t *testing.T) {
	// An L1 overflow in the second domain: the forest passes the domain
	// tree's runs through, so they must expand to that tree's naive
	// enumeration, in its own counter and node slices.
	p := newForest(2*32*16*16, 2)
	var up *Update
	for i := uint64(0); i <= p.MinorMax(); i++ {
		up = p.WritebackNode(p.globalize(1, NodeRef{Level: 0, Index: 20}))
	}
	local := NodeRef{Level: 1, Index: 1}
	if up == nil || !up.Overflow || up.OverflowRef != p.globalize(1, local) {
		t.Fatalf("no overflow at domain 1's %v: %+v", local, up)
	}
	checkRehashed(t, p.domains[1], local, up)
}

func TestPartitionedRootCount(t *testing.T) {
	p := newForest(4*32*16*16, 4)
	// Each domain's top stored level has 1 node -> 4 roots total.
	if p.RootCount() != 4 {
		t.Fatalf("root count = %d", p.RootCount())
	}
}

func TestPartitionedBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indivisible domains")
		}
	}()
	newForest(1000, 3)
}

// Domains is the tests' probe of the number of isolated domains.
func (p *Partitioned) Domains() int { return len(p.domains) }
