package itree

import (
	"fmt"

	"metaleak/internal/arch"
)

// Partitioned is the §IX-C mitigation: instead of one logically global
// integrity tree, the secure region is divided into per-domain slices,
// each covered by its own tree with its own on-chip root. Mutually
// distrusting domains share no non-root tree node at any level, which
// removes the implicit metadata sharing MetaLeak-T exploits and the
// shared version counters MetaLeak-C modulates.
//
// The partitioning here is static ("isolation techniques that support
// only a limited number of security domains with fixed tree sizes", as
// the paper puts it) — it demonstrates the security property while
// exhibiting exactly the costs the paper warns about: memory stranding
// (a domain cannot grow into another's slice) and extra on-chip roots.
//
// Node references are globalized: a node at stored level l with
// domain-local index i in domain d has Index = d*levelCount(l) + i, so
// the controller can treat the forest as one Tree.
type Partitioned struct {
	domains []*VTree
	// per-domain geometry (identical across domains).
	counts  []int
	sliceCB int
	nCB     int
	// pathCache memoizes the globalized Path per counter block (the
	// per-domain paths are already memoized; this avoids re-globalizing).
	pathCache map[arch.BlockID][]NodeRef
}

// NewPartitioned builds a forest of `domains` identical trees, each
// covering an equal slice of the counter-block space. base.CounterBlocks
// is the TOTAL coverage and must divide evenly.
func NewPartitioned(base VTreeConfig, domains int, h Hasher) *Partitioned {
	if domains < 1 {
		panic("itree: need at least one domain")
	}
	if base.CounterBlocks%domains != 0 {
		panic(fmt.Sprintf("itree: %d counter blocks not divisible by %d domains",
			base.CounterBlocks, domains))
	}
	slice := base.CounterBlocks / domains
	p := &Partitioned{
		sliceCB:   slice,
		nCB:       base.CounterBlocks,
		pathCache: make(map[arch.BlockID][]NodeRef),
	}
	// Per-domain node-block footprint, to lay domains out contiguously in
	// the tree region.
	geo := newGeometry(slice, base.Arities)
	footprint := 0
	for _, c := range geo.counts {
		footprint += c
	}
	p.counts = geo.counts
	for d := 0; d < domains; d++ {
		cfg := base
		cfg.Name = fmt.Sprintf("%s/dom%d", base.Name, d)
		cfg.CounterBlocks = slice
		cfg.CounterBlockOffset = d * slice
		cfg.NodeBlockOffset = d * footprint
		p.domains = append(p.domains, NewVTree(cfg, h))
	}
	return p
}

// DomainOfCounterBlock returns the domain covering a counter block.
func (p *Partitioned) DomainOfCounterBlock(cb arch.BlockID) int {
	idx := int(cb - arch.CounterBase.Block())
	if idx < 0 || idx >= p.nCB {
		panic(fmt.Sprintf("itree: counter block %#x outside covered region", uint64(cb)))
	}
	return idx / p.sliceCB
}

// globalize converts a domain-local reference to forest scope.
func (p *Partitioned) globalize(d int, ref NodeRef) NodeRef {
	return NodeRef{Level: ref.Level, Index: d*p.counts[ref.Level] + ref.Index}
}

// localize inverts globalize.
func (p *Partitioned) localize(ref NodeRef) (int, NodeRef) {
	n := p.counts[ref.Level]
	return ref.Index / n, NodeRef{Level: ref.Level, Index: ref.Index % n}
}

// Name implements Tree.
func (p *Partitioned) Name() string { return p.domains[0].Name() + "-ISO" }

// StoredLevels implements Tree.
func (p *Partitioned) StoredLevels() int { return p.domains[0].StoredLevels() }

// Arity implements Tree.
func (p *Partitioned) Arity(level int) int { return p.domains[0].Arity(level) }

// CounterBlockCapacity implements Tree.
func (p *Partitioned) CounterBlockCapacity() int { return p.nCB }

// CoverageCounterBlocks implements Tree.
func (p *Partitioned) CoverageCounterBlocks(level int) int {
	return p.domains[0].CoverageCounterBlocks(level)
}

// LeafRef implements Tree.
func (p *Partitioned) LeafRef(cb arch.BlockID) NodeRef {
	d := p.DomainOfCounterBlock(cb)
	return p.globalize(d, p.domains[d].LeafRef(cb))
}

// Parent implements Tree.
func (p *Partitioned) Parent(ref NodeRef) (NodeRef, bool) {
	d, local := p.localize(ref)
	parent, ok := p.domains[d].Parent(local)
	if !ok {
		return NodeRef{}, false
	}
	return p.globalize(d, parent), true
}

// NodeBlockID implements Tree.
func (p *Partitioned) NodeBlockID(ref NodeRef) arch.BlockID {
	d, local := p.localize(ref)
	return p.domains[d].NodeBlockID(local)
}

// RefOfBlock implements Tree.
func (p *Partitioned) RefOfBlock(b arch.BlockID) (NodeRef, bool) {
	for d, t := range p.domains {
		if ref, ok := t.RefOfBlock(b); ok {
			return p.globalize(d, ref), true
		}
	}
	return NodeRef{}, false
}

// Path implements Tree.
func (p *Partitioned) Path(cb arch.BlockID) []NodeRef {
	if out, ok := p.pathCache[cb]; ok {
		return out
	}
	d := p.DomainOfCounterBlock(cb)
	local := p.domains[d].Path(cb)
	out := make([]NodeRef, len(local))
	for i, ref := range local {
		out[i] = p.globalize(d, ref)
	}
	p.pathCache[cb] = out
	return out
}

// VerifyCounterBlock implements Tree.
func (p *Partitioned) VerifyCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) bool {
	return p.domains[p.DomainOfCounterBlock(cb)].VerifyCounterBlock(cb, contents)
}

// VerifyNode implements Tree.
func (p *Partitioned) VerifyNode(ref NodeRef) bool {
	d, local := p.localize(ref)
	return p.domains[d].VerifyNode(local)
}

// WritebackCounterBlock implements Tree.
func (p *Partitioned) WritebackCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) *Update {
	d := p.DomainOfCounterBlock(cb)
	return p.globalizeUpdate(d, p.domains[d].WritebackCounterBlock(cb, contents))
}

// WritebackNode implements Tree.
func (p *Partitioned) WritebackNode(ref NodeRef) *Update {
	d, local := p.localize(ref)
	return p.globalizeUpdate(d, p.domains[d].WritebackNode(local))
}

func (p *Partitioned) globalizeUpdate(d int, up *Update) *Update {
	if up == nil {
		return nil
	}
	up.OverflowRef = p.globalize(d, up.OverflowRef)
	// Rehashed holds block runs, which are already globally unique.
	return up
}

// MinorMax returns the saturation value of a tree minor counter, the
// same in every domain.
func (p *Partitioned) MinorMax() uint64 { return p.domains[0].MinorMax() }

// MinorValue is VTree.MinorValue for a forest-scope node reference.
func (p *Partitioned) MinorValue(ref NodeRef, slot int) uint64 {
	d, local := p.localize(ref)
	return p.domains[d].MinorValue(local, slot)
}

// CorruptNode implements Tree: the corruption lands in the owning domain.
func (p *Partitioned) CorruptNode(ref NodeRef) {
	d, local := p.localize(ref)
	p.domains[d].CorruptNode(local)
}

// RootCount returns the total number of on-chip root entries the forest
// needs — the hardware cost of isolation the paper's §IX-C flags.
func (p *Partitioned) RootCount() int {
	top := len(p.counts) - 1
	return len(p.domains) * p.counts[top]
}
