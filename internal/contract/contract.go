// Package contract encodes per-DesignPoint leakage contracts — the
// verification backbone of DESIGN.md §13. A contract pins down, for one
// secure-processor configuration, exactly what an attacker at the
// memory controller may observe (the *observable* projection of a
// trace), which of those observables the design admits leaking (the
// *allowed* set — the paper's published channels), and which channels
// its attack model requires to be live (the *required* set). A
// differential run that diverges outside the allowed set is a broken
// defence ("leaks more than declared"); a corpus in which a required
// component never diverges is a broken attack model ("leaks less than
// declared"). The hunt fuzzer (internal/hunt) checks both on every
// trace it records.
package contract

import (
	"fmt"
	"strings"

	"metaleak/internal/arch"
	"metaleak/internal/dram"
	"metaleak/internal/machine"
	"metaleak/internal/secmem"
	"metaleak/internal/sim"
)

// Component is one observable dimension of a metadata access as seen
// from the memory bus.
type Component uint8

// The observable components, in classification priority order is NOT
// implied here — this is declaration order for rendering; priority
// lives with the hunt's classifier.
const (
	// CompSet is the metadata-cache set index of the access's counter
	// block — the mEvict/mReload observable (§V).
	CompSet Component = iota
	// CompBank is the DRAM bank its counter block maps to — the
	// MetaLeak-C contention observable (§VII).
	CompBank
	// CompPath is the Fig. 5 access-path class (cache/counter/tree
	// hit/miss).
	CompPath
	// CompTree is the number of integrity-tree levels fetched from
	// memory — the HT tree-walk depth observable.
	CompTree
	// CompOverflow is whether the access fired a counter (or tree)
	// overflow — the VUL-1 re-encryption trigger (§VI).
	CompOverflow
	// CompLatency is the access's latency band (32-cycle buckets) — the
	// timing observable every primitive ultimately measures.
	CompLatency
	// CompTime is the access's completion cycle.
	CompTime
	// CompCount is the number of memory-reaching accesses (trace
	// length under the observation projection).
	CompCount

	numComponents
)

var componentNames = [numComponents]string{
	"set", "bank", "path", "tree", "ovf", "lat", "time", "count",
}

// String returns the component's contract-grammar name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// ParseComponent resolves a contract-grammar component name.
func ParseComponent(s string) (Component, error) {
	for i, n := range componentNames {
		if n == s {
			return Component(i), nil
		}
	}
	return 0, fmt.Errorf("unknown contract component %q (one of %s)",
		s, strings.Join(componentNames[:], ", "))
}

// Mask is a set of components.
type Mask uint16

// With returns the mask with the components added.
func (m Mask) With(cs ...Component) Mask {
	for _, c := range cs {
		m |= 1 << c
	}
	return m
}

// Has reports whether the component is in the mask.
func (m Mask) Has(c Component) bool { return m&(1<<c) != 0 }

// String renders the mask's components joined by '+' in declaration
// order, or "none" when empty.
func (m Mask) String() string {
	var parts []string
	for c := Component(0); c < numComponents; c++ {
		if m.Has(c) {
			parts = append(parts, c.String())
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// parseMaskList parses a comma-separated component list ("none" for
// the empty mask).
func parseMaskList(s string) (Mask, error) {
	if s == "none" {
		return 0, nil
	}
	var m Mask
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := ParseComponent(part)
		if err != nil {
			return 0, err
		}
		m = m.With(c)
	}
	return m, nil
}

// Contract is one design point's leakage specification.
type Contract struct {
	// Observable is the projection: the components an attacker at the
	// memory controller can measure on this design at all. Components
	// outside it are erased before any comparison (e.g. RandomizedMeta
	// removes set — conflict-based set probing is impossible under
	// MIRAGE).
	Observable Mask
	// Allowed is the declared leakage: differential divergence on these
	// components is in-model. Divergence on Observable components
	// outside Allowed is a contract violation — the design leaks more
	// than it declares.
	Allowed Mask
	// Required is the attack model's live channels: components the
	// design's threat analysis claims *do* diverge under a
	// secret-dependent workload. A hunt corpus in which one never
	// diverges means the design leaks less than declared — a broken (or
	// defeated) attack model, which is what a working defence looks
	// like.
	Required Mask
}

// String renders the contract in its own grammar.
func (c Contract) String() string {
	return fmt.Sprintf("observe=%s;allow=%s;require=%s",
		c.Observable, c.Allowed, c.Required)
}

// Violations returns the diverging components the contract does not
// allow.
func (c Contract) Violations(diverged Mask) Mask {
	return diverged & c.Observable &^ c.Allowed
}

// For derives the design point's contract: the default for its
// configuration, then dp.Contract's overrides on top. The default
// declares the paper's full observable surface as allowed (the
// baseline designs are leaky by design — that is the paper's point)
// and requires the channels the design's Table I row exposes.
func For(dp machine.DesignPoint) (Contract, error) {
	obs := Mask(0).With(CompBank, CompLatency, CompTime, CompCount)
	var req Mask
	if !dp.Insecure {
		obs = obs.With(CompPath, CompTree, CompOverflow)
		if !dp.RandomizedMeta {
			obs = obs.With(CompSet)
		}
		switch dp.Tree {
		case machine.TreeSCT:
			// Split-counter trees expose the overflow burst (VUL-1) and
			// the shared walk state.
			req = req.With(CompOverflow, CompTree)
		case machine.TreeHT, machine.TreeSIT:
			req = req.With(CompTree)
		}
		if dp.IsolatedDomains > 0 {
			// §IX-C: per-domain trees with private roots and partitioned
			// metadata — the attacker can no longer resolve the victim's
			// metadata addresses, so the structural observables (set,
			// bank, tree depth) leave the vantage; only volume and
			// timing remain.
			obs &^= Mask(0).With(CompSet, CompBank, CompTree)
		}
		req &= obs
	}
	c := Contract{Observable: obs, Allowed: obs, Required: req}
	if err := c.apply(dp.Contract); err != nil {
		return Contract{}, err
	}
	if bad := c.Allowed &^ c.Observable; bad != 0 {
		return Contract{}, fmt.Errorf("contract allows unobservable components %s", bad)
	}
	if bad := c.Required &^ c.Allowed; bad != 0 {
		return Contract{}, fmt.Errorf("contract requires components it does not allow: %s", bad)
	}
	return c, nil
}

// apply folds a contract spec string into the derived default. Grammar:
//
//	spec    := "none" | clause (";" clause)*
//	clause  := ("observe" | "allow" | "require") "=" list
//	list    := "none" | component ("," component)*
//
// "none" alone declares a leak-free design: nothing is allowed and
// nothing required — every observable divergence becomes a violation.
func (c *Contract) apply(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	if spec == "none" {
		c.Allowed = 0
		c.Required = 0
		return nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, list, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("contract clause %q is not key=components", clause)
		}
		m, err := parseMaskList(strings.TrimSpace(list))
		if err != nil {
			return fmt.Errorf("contract clause %q: %w", clause, err)
		}
		switch strings.TrimSpace(key) {
		case "observe":
			c.Observable = m
		case "allow":
			c.Allowed = m
		case "require":
			c.Required = m
		default:
			return fmt.Errorf("contract clause %q: unknown key (observe, allow, or require)", clause)
		}
	}
	return nil
}

// Obs is one memory-reaching access under a contract's observation
// projection. Components outside the contract's Observable mask are
// zero in every Obs, so they can never register divergence.
type Obs struct {
	Set      uint32
	Bank     uint16
	Path     uint8
	Tree     uint8
	Overflow bool
	Lat      uint32 // 32-cycle latency band
	Time     uint64 // completion cycle
}

// Projector maps raw trace events onto a design point's observation
// space. It reads the machine's metadata address mapping (counter block
// of a data block, metadata-cache set count, DRAM bank hash) from the
// code machine.NewSystem builds with, so a contract check needs no live
// machine and cannot drift from the one it judges.
type Projector struct {
	observable   Mask
	insecure     bool
	counterBlock func(arch.BlockID) arch.BlockID
	sets         uint64 // a power of two: cache.New rejects anything else
	dram         dram.Config
}

// NewProjector builds the projector for a design point under a
// contract.
func NewProjector(dp machine.DesignPoint, c Contract) Projector {
	return Projector{
		observable:   c.Observable,
		insecure:     dp.Insecure,
		counterBlock: machine.CounterBlockOf(dp),
		sets:         uint64(machine.MetaCacheConfig(dp).Sets()),
		dram:         machine.DRAMConfig(dp),
	}
}

// metaBlock returns the metadata block an access's counter lives in —
// the address whose cache set and DRAM bank the attacker's probes
// resolve. The insecure baseline has no metadata; its observable
// address is the data block itself.
func (p Projector) metaBlock(b arch.BlockID) arch.BlockID {
	if p.insecure {
		return b
	}
	return p.counterBlock(b)
}

// Project maps one event onto the observation space.
func (p Projector) Project(ev sim.TraceEvent) Obs {
	var o Obs
	mb := p.metaBlock(ev.Block)
	if p.observable.Has(CompSet) {
		o.Set = uint32(uint64(mb) & (p.sets - 1))
	}
	if p.observable.Has(CompBank) {
		o.Bank = uint16(p.dram.BankOf(mb))
	}
	if p.observable.Has(CompPath) {
		o.Path = uint8(ev.Path)
	}
	if p.observable.Has(CompTree) {
		o.Tree = uint8(ev.TreeLevels)
	}
	if p.observable.Has(CompOverflow) {
		o.Overflow = ev.Overflow
	}
	if p.observable.Has(CompLatency) {
		o.Lat = uint32(ev.Latency / 32)
	}
	if p.observable.Has(CompTime) {
		o.Time = uint64(ev.Now)
	}
	return o
}

// Observe projects a trace onto the observation stream: the
// memory-reaching accesses (core-cache hits never leave the package —
// no bus transaction, nothing to observe), each reduced to its
// observable components.
func (p Projector) Observe(events []sim.TraceEvent) []Obs {
	var out []Obs
	for _, ev := range events {
		if ev.Path == secmem.PathCacheHit {
			continue
		}
		out = append(out, p.Project(ev))
	}
	return out
}

// ObsDivergence locates how two observation streams differ, component
// by component.
type ObsDivergence struct {
	LenA, LenB int
	// First is the index of the first diverging observation (-1 when
	// the streams are identical; the common length for a pure length
	// divergence).
	First int
	// FirstMask is the components diverging at First (CompCount for a
	// pure length divergence).
	FirstMask Mask
	// Mask is the union of diverging components, including CompCount on
	// a length mismatch.
	Mask Mask
	// Count is the number of diverging positions in the common prefix.
	Count int
}

// Diverged reports whether the streams differ at all.
func (d ObsDivergence) Diverged() bool { return d.Mask != 0 }

// obsDiff compares two observations component-wise.
func obsDiff(a, b Obs) Mask {
	var m Mask
	if a.Set != b.Set {
		m = m.With(CompSet)
	}
	if a.Bank != b.Bank {
		m = m.With(CompBank)
	}
	if a.Path != b.Path {
		m = m.With(CompPath)
	}
	if a.Tree != b.Tree {
		m = m.With(CompTree)
	}
	if a.Overflow != b.Overflow {
		m = m.With(CompOverflow)
	}
	if a.Lat != b.Lat {
		m = m.With(CompLatency)
	}
	if a.Time != b.Time {
		m = m.With(CompTime)
	}
	return m
}

// DiffObs compares two observation streams position by position over
// their common prefix. Length divergence registers as CompCount — the
// access count is itself an observable.
func DiffObs(a, b []Obs) ObsDivergence {
	d := ObsDivergence{LenA: len(a), LenB: len(b), First: -1}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		m := obsDiff(a[i], b[i])
		if m == 0 {
			continue
		}
		if d.First < 0 {
			d.First = i
			d.FirstMask = m
		}
		d.Mask |= m
		d.Count++
	}
	if len(a) != len(b) {
		d.Mask = d.Mask.With(CompCount)
		if d.First < 0 {
			d.First = n
			d.FirstMask = Mask(0).With(CompCount)
		}
	}
	return d
}

// Check validates a trace against the design point's structural
// invariants — the shape every legal trace has regardless of secrets.
// A violation means the simulator (or a fault injection) produced an
// access no real machine of this configuration could produce: the
// trace-level analogue of the zero-silent-escape tamper matrix.
func Check(dp machine.DesignPoint, events []sim.TraceEvent) error {
	maxLv := len(dp.TreeArities) // the tree's stored levels
	for i, ev := range events {
		fail := func(msg string, args ...any) error {
			return fmt.Errorf("trace event %d (seq %d, block %#x): %s",
				i, ev.Seq, uint64(ev.Block), fmt.Sprintf(msg, args...))
		}
		if ev.Path < secmem.PathCacheHit || ev.Path > secmem.PathTreeMiss {
			return fail("access path %d outside Fig. 5's 1..4", ev.Path)
		}
		if ev.TreeLevels < 0 || ev.TreeLevels > maxLv {
			return fail("tree levels %d outside [0,%d]", ev.TreeLevels, maxLv)
		}
		if ev.Path != secmem.PathTreeMiss && ev.TreeLevels != 0 {
			return fail("path %d fetched %d tree levels (only a tree miss loads nodes)", ev.Path, ev.TreeLevels)
		}
		if ev.Path == secmem.PathTreeMiss && ev.TreeLevels == 0 {
			return fail("tree miss fetched no tree levels")
		}
		if ev.Overflow && !ev.Write {
			return fail("overflow on a read (counters only bump on the write path)")
		}
		if ev.Overflow && ev.Path == secmem.PathCacheHit {
			return fail("overflow on a core-cache hit (no counter was touched)")
		}
		if dp.Insecure {
			if ev.Path > secmem.PathCounterHit || ev.TreeLevels != 0 || ev.Overflow {
				return fail("metadata activity (path %d, tree %d, ovf %t) on the insecure baseline",
					ev.Path, ev.TreeLevels, ev.Overflow)
			}
		}
	}
	return nil
}
