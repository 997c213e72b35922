// Package hunt is the dynamic half of the automated leakage search
// (DESIGN.md §13): a fully deterministic differential fuzzer. It
// generates seeded random victim access patterns, runs each program
// twice under two secrets on the *same* machine seed, and diffs the two
// metadata-access traces under the design point's leakage contract
// (internal/contract). Any divergence is a channel, found with no
// hand-written attack; a divergence outside the contract's allowed set
// is a broken defence; a required channel that never diverges is a
// broken (or defeated) attack model. The static half is the secretflow
// taint analyzer — every classified dynamic channel cross-checks
// against its committed leakage inventory (inventory.go).
package hunt

import (
	"fmt"

	"metaleak/internal/arch"
	"metaleak/internal/contract"
	"metaleak/internal/machine"
	"metaleak/internal/sim"
	"metaleak/internal/trace"
)

// OpKind enumerates the generated victims' operation alphabet. The
// secret-dependent ops mirror the paper's three victim shapes: a
// secret-indexed table walk (§VIII-A jpeg), a secret-scheduled write
// burst (§VI counter overflow), and secret-dependent idling (§VII
// contention windows).
type OpKind uint8

// The operation alphabet.
const (
	// OpTouch is a cleansed read of a fixed page — the §III
	// cache-cleansing victim policy, so the access reaches the MC.
	OpTouch OpKind = iota
	// OpWrite is a write-through store to a fixed page.
	OpWrite
	// OpSecretTouch is a cleansed read of the page indexed by the next
	// secret nibble — the secret-indexed lookup every table-driven
	// victim performs.
	OpSecretTouch
	// OpSecretWrite is a write-through store to one of two blocks of a
	// fixed page, picked by the next secret bit. Both blocks share the
	// page's counter group, so nothing structural diverges — until the
	// per-block minor counters overflow on secret-dependent schedules
	// (VUL-1).
	OpSecretWrite
	// OpSecretIdle idles for a fixed window or not at all, picked by
	// the next secret bit — the data-dependent compute time every
	// non-constant-time victim has.
	OpSecretIdle
	// OpIdle idles for a fixed window.
	OpIdle

	numOpKinds
)

// Op is one victim operation.
type Op struct {
	Kind OpKind
	// Arg is the fixed-page index (OpTouch/OpWrite/OpSecretWrite) or
	// the idle window in cycles (OpIdle); unused otherwise.
	Arg int
}

// Program is one generated victim: a seeded random operation sequence
// over a fixed page layout.
type Program struct {
	Seed uint64
	Ops  []Op
}

// Generation and layout parameters. The page frames are fixed by the
// program (frame = index * frameStride, past any noise pages in core
// 0's domain), so the victim's address layout is part of the program
// identity, not the machine seed: both runs of a differential pair see
// the identical layout.
const (
	// fixedPages is how many secret-independent pages a program uses.
	fixedPages = 8
	// secretPages is the size of the secret-indexed table (one nibble).
	secretPages = 16
	// frameStride spaces the program's page frames. It exceeds the
	// 128-block DRAM row (so consecutive pages' counter blocks occupy
	// different rows, hence different banks under the XOR hash) and is
	// odd (so metadata-cache sets spread).
	frameStride = 131
	// secretIdleCycles is OpSecretIdle's window.
	secretIdleCycles = 3000
)

// Generate builds the seeded random victim program: nops operations
// drawn uniformly from the full alphabet, which keeps roughly half of
// them secret-dependent.
func Generate(seed uint64, nops int) Program {
	return GenerateMix(seed, nops, nil)
}

// GenerateMix is Generate restricted to an op alphabet — the directed
// corpus behind the control suite, which isolates one secret-dependent
// op per known channel (only secret writes for the overflow hunt, only
// secret touches for the walk hunt). nil or empty means the full
// alphabet.
func GenerateMix(seed uint64, nops int, kinds []OpKind) Program {
	if len(kinds) == 0 {
		kinds = make([]OpKind, numOpKinds)
		for i := range kinds {
			kinds[i] = OpKind(i)
		}
	}
	rng := arch.NewRNG(seed, 0x47)
	ops := make([]Op, nops)
	for i := range ops {
		k := kinds[rng.Intn(len(kinds))]
		arg := 0
		switch k {
		case OpTouch, OpWrite, OpSecretWrite:
			arg = rng.Intn(fixedPages)
		case OpIdle:
			arg = 500 + rng.Intn(2000)
		}
		ops[i] = Op{Kind: k, Arg: arg}
	}
	return Program{Seed: seed, Ops: ops}
}

// Secrets derives a differential secret pair: two independent random
// byte strings of length n from the pair seed. Both runs of a cell use
// the same machine seed and program; only this pair differs.
func Secrets(seed uint64, n int) ([]byte, []byte) {
	if n <= 0 {
		n = 8
	}
	a := make([]byte, n)
	b := make([]byte, n)
	rngA := arch.NewRNG(seed, 0x5A)
	rngB := arch.NewRNG(seed, 0x5B)
	same := true
	for i := range a {
		a[i] = byte(rngA.Uint64())
		b[i] = byte(rngB.Uint64())
		same = same && a[i] == b[i]
	}
	if same {
		// A colliding pair would make the differential run vacuous.
		b[0] ^= 1
	}
	return a, b
}

// bitReader feeds a program's secret-dependent ops from the secret,
// cycling when the program consumes more bits than the secret holds.
type bitReader struct {
	secret []byte
	pos    int // bit cursor
}

func (r *bitReader) bit() int {
	if len(r.secret) == 0 {
		return 0
	}
	i := r.pos % (len(r.secret) * 8)
	r.pos++
	return int(r.secret[i/8]>>(i%8)) & 1
}

func (r *bitReader) nibble() int {
	v := 0
	for i := 0; i < 4; i++ {
		v |= r.bit() << i
	}
	return v
}

// Run executes the program on a fresh machine built from dp and returns
// the victim-core trace — every demand access and explicit write-back
// the memory controller saw.
//
// The secret is deliberately NOT a secretflow source (//metalint:secret):
// it is the hunt's own generated probe, and the point of the dynamic
// search is to measure its propagation on the machine rather than in
// the taint model. The static/dynamic link runs the other way —
// CrossCheck (inventory.go) maps every divergence the fuzzer finds
// back to the analyzer's committed leakage inventory.
func Run(dp machine.DesignPoint, prog Program, secret []byte) ([]sim.TraceEvent, error) {
	sys := machine.NewSystem(dp)
	// A noise process sharing core 0's domain owns the frames at its
	// bottom; the program's frames start past them. Without noise the
	// layout is frame i*frameStride from 0.
	base := arch.PageID(0)
	for sys.Owner(base) >= 0 {
		base++
	}
	fixed := make([]arch.PageID, fixedPages)
	table := make([]arch.PageID, secretPages)
	for i := range fixed {
		frame := base + arch.PageID(i*frameStride)
		if err := sys.AllocFrame(0, frame); err != nil {
			return nil, fmt.Errorf("hunt: fixed page %d: %w", i, err)
		}
		fixed[i] = frame
	}
	for i := range table {
		frame := base + arch.PageID((fixedPages+i)*frameStride)
		if err := sys.AllocFrame(0, frame); err != nil {
			return nil, fmt.Errorf("hunt: table page %d: %w", i, err)
		}
		table[i] = frame
	}

	rec := trace.New(1 << 16)
	rec.Filter = func(ev sim.TraceEvent) bool { return ev.Core == 0 }
	detach := rec.Attach(sys.System)
	defer detach()

	bits := bitReader{secret: secret}
	for i, op := range prog.Ops {
		tag := byte(i)
		switch op.Kind {
		case OpTouch:
			b := fixed[op.Arg].Block(0)
			sys.Flush(0, b)
			sys.Touch(0, b)
		case OpWrite:
			sys.WriteThrough(0, fixed[op.Arg].Block(0), [arch.BlockSize]byte{tag})
		case OpSecretTouch:
			// The hunted table walk: the nibble picks which metadata
			// page the MC touches (inventory channel "addr").
			pg := table[bits.nibble()]
			b := pg.Block(0)
			sys.Flush(0, b)
			sys.Touch(0, b)
		case OpSecretWrite:
			// The hunted write split: per-block minor counters overflow
			// on secret-dependent schedules (inventory channel
			// "ctr-bump").
			blk := fixed[op.Arg].Block(bits.bit())
			sys.WriteThrough(0, blk, [arch.BlockSize]byte{tag})
		case OpSecretIdle:
			// The hunted timing split: the idle window shifts every
			// later access (inventory channel "trip-count").
			if bits.bit() == 1 {
				sys.Idle(secretIdleCycles)
			}
		case OpIdle:
			sys.Idle(arch.Cycles(op.Arg))
		}
	}
	if rec.Total() > uint64(rec.Len()) {
		return nil, fmt.Errorf("hunt: trace ring overflowed (%d events for %d slots)", rec.Total(), rec.Len())
	}
	return rec.Events(), nil
}

// channelOrder maps diverging components to channel names in
// classification priority order: the most structural (and most
// paper-specific) observable wins — an overflow divergence is the
// counter-overflow channel even though it always drags latency and
// timing along.
var channelOrder = []struct {
	comp contract.Component
	name string
}{
	{contract.CompOverflow, "ctr-overflow"}, // §VI, VUL-1
	{contract.CompTree, "tree-walk"},        // HT/SIT walk depth
	{contract.CompPath, "meta-path"},        // Fig. 5 path class
	{contract.CompSet, "meta-set"},          // §V mEvict/mReload
	{contract.CompBank, "bank-contention"},  // §VII MetaLeak-C
	{contract.CompCount, "access-count"},    // trace-length channel
	{contract.CompLatency, "latency"},       // raw latency band
	{contract.CompTime, "timing"},           // completion-time skew
}

// Classify names the channel of a divergence from the components that
// diverged at its first observation.
func Classify(first contract.Mask) string {
	for _, e := range channelOrder {
		if first.Has(e.comp) {
			return e.name
		}
	}
	return ""
}

// Channels lists every channel name Classify can produce, in priority
// order.
func Channels() []string {
	out := make([]string, len(channelOrder))
	for i, e := range channelOrder {
		out[i] = e.name
	}
	return out
}

// Verdict is the outcome of one differential pair: one program, one
// machine seed, two secrets.
type Verdict struct {
	// Diverged reports whether the two observation streams differ at
	// all under the design's contract projection.
	Diverged bool
	// Channel classifies the divergence from its first diverging
	// observation ("" when none).
	Channel string
	// First is the index of the first diverging observation (-1 when
	// none); FirstComponents the components diverging there.
	First           int
	FirstComponents string
	// Components is the union of diverging components over the stream.
	Components string
	// Count is the number of diverging positions in the common prefix —
	// the channel's crude bandwidth, which defences attenuate.
	Count int
	// Violation names observable diverging components outside the
	// contract's allowed set ("" when the run is in-model): the design
	// leaks more than it declares.
	Violation string
	// Missing names required components that did not diverge in this
	// pair ("" when all fired): aggregated over a corpus, a channel the
	// attack model declares live but the search cannot reproduce.
	Missing string
	// ObsA and ObsB are the observation-stream lengths of the two runs.
	ObsA, ObsB int
	// Contract is the rendered contract the pair was judged under.
	Contract string
}

// RunPair runs one differential pair and judges it under the design
// point's contract. Both runs share dp (including dp.Seed) and prog;
// only the secret differs — so any trace divergence is, by
// construction, secret-dependent behaviour.
func RunPair(dp machine.DesignPoint, prog Program, secretA, secretB []byte) (Verdict, error) {
	ct, err := contract.For(dp)
	if err != nil {
		return Verdict{}, fmt.Errorf("hunt: %w", err)
	}
	evA, err := Run(dp, prog, secretA)
	if err != nil {
		return Verdict{}, err
	}
	evB, err := Run(dp, prog, secretB)
	if err != nil {
		return Verdict{}, err
	}
	// Structural validation first: a divergence on an illegal trace
	// would be a simulator defect, not a channel.
	if err := contract.Check(dp, evA); err != nil {
		return Verdict{}, fmt.Errorf("hunt: run A: %w", err)
	}
	if err := contract.Check(dp, evB); err != nil {
		return Verdict{}, fmt.Errorf("hunt: run B: %w", err)
	}
	proj := contract.NewProjector(dp, ct)
	obsA := proj.Observe(evA)
	obsB := proj.Observe(evB)
	d := contract.DiffObs(obsA, obsB)
	v := Verdict{
		Diverged: d.Diverged(),
		First:    d.First,
		Count:    d.Count,
		ObsA:     len(obsA),
		ObsB:     len(obsB),
		Contract: ct.String(),
	}
	if d.Diverged() {
		v.Channel = Classify(d.FirstMask)
		v.FirstComponents = d.FirstMask.String()
		v.Components = d.Mask.String()
	}
	if viol := ct.Violations(d.Mask); viol != 0 {
		v.Violation = viol.String()
	}
	if missing := ct.Required &^ d.Mask; missing != 0 {
		v.Missing = missing.String()
	}
	return v, nil
}
