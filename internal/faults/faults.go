// Package faults is the seeded, deterministic fault-plan engine: it
// parses a compact fault specification into a Plan and turns the plan
// into concrete injectors for the two surfaces faults can hit —
//
//   - the simulated machine, where planned corruptions of ciphertext,
//     MACs, encryption counters, and integrity-tree nodes land in the
//     secure memory controller (secmem.Injector) and must be caught by
//     the MAC check and the Algorithm 2 tree walk;
//   - the experiment harness, where planned trial panics, stalls,
//     errors, and checkpoint-line truncation exercise the runner's
//     retry/timeout/quarantine machinery and the checkpoint's
//     torn-line salvage.
//
// Everything is a pure function of the spec and a seed: the same plan
// against the same machine produces byte-identical injections, so a
// faulted run is as reproducible as an honest one — the property the
// repo's determinism gate (metalint) exists to protect.
//
// # Spec grammar
//
// A spec is ';'-separated entries:
//
//	machine:CLASS@N[,N...]      corrupt CLASS before access ordinal N
//	machine:CLASS@autoK[/H]     K seeded corruptions within accesses 1..H
//	harness:KIND@CELL[xN]       fail CELL's first N attempts (default 1)
//	harness:trunc@K             tear the checkpoint after its Kth append
//
// CLASS is ciphertext, mac, minor, major, node, row, or any (class
// drawn from the seed per injection; H defaults to 512). KIND is
// panic, stall, err, disconnect, or flap — the last two only meaningful
// under a distributed sweep, where they make the worker holding CELL's
// lease drop its coordinator connection (the in-process analog of
// kill -9) so the drop/revoke/re-lease path is exercised. disconnect
// and flap inject identically at the worker; they differ in what the
// run promises about recovery: a disconnect consumes the cell's lease
// budget (the fleet is unsupervised, the cell marches toward
// quarantine), while flap expects a supervised fleet — the worker
// respawns, redials, and the cell re-deals without losing an attempt,
// which is exactly the invariant `metaleak chaos` asserts. Examples:
//
//	machine:mac@40
//	machine:any@auto6/256
//	harness:panic@3x2;harness:trunc@2
//	harness:flap@1x2;harness:flap@4
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"metaleak/internal/arch"
	"metaleak/internal/secmem"
)

// defaultHorizon bounds auto-planned access ordinals when the spec
// names none.
const defaultHorizon = 512

// HarnessKind names one harness-level fault flavour.
type HarnessKind uint8

// Harness fault kinds.
const (
	// HarnessPanic makes the cell's trial panic (exercises the runner's
	// panic containment and retry).
	HarnessPanic HarnessKind = iota
	// HarnessStall makes the trial block past any per-trial deadline
	// (exercises timeout detection).
	HarnessStall
	// HarnessErr makes the trial fail with an injected error.
	HarnessErr
	// HarnessTrunc tears the checkpoint file mid-append and stops
	// persistence, simulating a crash of the writing process.
	HarnessTrunc
	// HarnessDisconnect makes the dispatch worker holding the cell's
	// lease drop its coordinator connection before running it — the
	// worker-side analog of a SIGKILL — exercising the coordinator's
	// lease revocation and re-deal. Only distributed sweeps consult it;
	// single-process runs ignore it.
	HarnessDisconnect
	// HarnessFlap is a disconnect-then-reconnect: the worker drops its
	// connection exactly like HarnessDisconnect, but the run is expected
	// to be supervised — the supervisor respawns the worker, dial retry
	// reattaches it, and the coordinator's revive budget re-deals the
	// cell without consuming attempts. Chaos uses it to prove a flapping
	// fleet converges byte-identical to a clean run with zero
	// quarantined cells.
	HarnessFlap
)

// MachineEntry is one parsed machine-level fault.
type MachineEntry struct {
	// Class is the metadata class to corrupt; ignored when Any is set.
	Class secmem.InjectClass
	// Any draws the class from the seed per injection.
	Any bool
	// At lists explicit access ordinals; empty means auto-planning.
	At []uint64
	// Auto is the seeded injection count when At is empty.
	Auto int
	// Horizon bounds auto-planned ordinals to [1, Horizon].
	Horizon uint64
}

// HarnessEntry is one parsed harness-level fault.
type HarnessEntry struct {
	Kind HarnessKind
	// Cell is the sweep cell (or trial) index the fault targets; for
	// trunc it is the append ordinal after which the tear happens.
	Cell int
	// Fails is how many leading attempts of the cell fail.
	Fails int
}

// Plan is a parsed fault specification.
type Plan struct {
	// Spec is the normalized input string.
	Spec    string
	Machine []MachineEntry
	Harness []HarnessEntry

	machineRaw []string
	harnessRaw []string
}

// HasMachine reports whether any machine-level entries are planned.
func (p *Plan) HasMachine() bool { return len(p.Machine) > 0 }

// HasHarness reports whether any harness-level entries are planned.
func (p *Plan) HasHarness() bool { return len(p.Harness) > 0 }

// MachineSpec re-renders only the machine-level entries — the part of a
// mixed spec that must travel with the DesignPoint (and hence the
// checkpoint fingerprint), while harness entries stay with the runner.
func (p *Plan) MachineSpec() string { return strings.Join(p.machineRaw, ";") }

// HarnessSpec re-renders only the harness-level entries — the part of a
// mixed spec a distributed sweep ships to its workers inside the job,
// so worker-side faults (disconnect) fire in the process actually
// holding the lease.
func (p *Plan) HarnessSpec() string { return strings.Join(p.harnessRaw, ";") }

// HasDisconnect reports whether any disconnect or flap entries are
// planned — both drop worker connections, so they require a distributed
// run to mean anything, and the CLI rejects them otherwise instead of
// silently ignoring the plan.
func (p *Plan) HasDisconnect() bool {
	for _, he := range p.Harness {
		if he.Kind == HarnessDisconnect || he.Kind == HarnessFlap {
			return true
		}
	}
	return false
}

// Parse parses a fault specification. An empty spec yields an empty
// plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{Spec: strings.TrimSpace(spec)}
	for _, raw := range strings.Split(spec, ";") {
		entry := strings.TrimSpace(raw)
		if entry == "" {
			continue
		}
		surface, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("faults: entry %q: want surface:kind@where", entry)
		}
		kind, where, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("faults: entry %q: want surface:kind@where", entry)
		}
		kind = strings.ToLower(strings.TrimSpace(kind))
		where = strings.TrimSpace(where)
		switch strings.ToLower(strings.TrimSpace(surface)) {
		case "machine":
			me, err := parseMachine(kind, where)
			if err != nil {
				return nil, fmt.Errorf("faults: entry %q: %w", entry, err)
			}
			p.Machine = append(p.Machine, me)
			p.machineRaw = append(p.machineRaw, entry)
		case "harness":
			he, err := parseHarness(kind, where)
			if err != nil {
				return nil, fmt.Errorf("faults: entry %q: %w", entry, err)
			}
			p.Harness = append(p.Harness, he)
			p.harnessRaw = append(p.harnessRaw, entry)
		default:
			return nil, fmt.Errorf("faults: entry %q: unknown surface %q (machine or harness)", entry, surface)
		}
	}
	return p, nil
}

// MustParse is Parse for specs known good at compile time; it panics on
// error (machine.NewSystem-style construction, where the CLI has
// already vetted the spec).
func MustParse(spec string) *Plan {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func parseMachine(class, where string) (MachineEntry, error) {
	me := MachineEntry{Horizon: defaultHorizon}
	switch class {
	case "ciphertext":
		me.Class = secmem.InjectCiphertext
	case "mac":
		me.Class = secmem.InjectMAC
	case "minor":
		me.Class = secmem.InjectMinor
	case "major":
		me.Class = secmem.InjectMajor
	case "node":
		me.Class = secmem.InjectNode
	case "row":
		me.Class = secmem.InjectRow
	case "any":
		me.Any = true
	default:
		return me, fmt.Errorf("unknown class %q (ciphertext, mac, minor, major, node, row, or any)", class)
	}
	if rest, ok := strings.CutPrefix(where, "auto"); ok {
		count := rest
		if c, h, ok := strings.Cut(rest, "/"); ok {
			count = c
			hv, err := strconv.ParseUint(strings.TrimSpace(h), 10, 64)
			if err != nil || hv == 0 {
				return me, fmt.Errorf("bad auto horizon %q", h)
			}
			me.Horizon = hv
		}
		n, err := strconv.Atoi(strings.TrimSpace(count))
		if err != nil || n <= 0 {
			return me, fmt.Errorf("bad auto count %q", count)
		}
		me.Auto = n
		return me, nil
	}
	for _, f := range strings.Split(where, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil || v == 0 {
			return me, fmt.Errorf("bad access ordinal %q (1-based)", f)
		}
		me.At = append(me.At, v)
	}
	return me, nil
}

func parseHarness(kind, where string) (HarnessEntry, error) {
	he := HarnessEntry{Fails: 1}
	switch kind {
	case "panic":
		he.Kind = HarnessPanic
	case "stall":
		he.Kind = HarnessStall
	case "err":
		he.Kind = HarnessErr
	case "trunc":
		he.Kind = HarnessTrunc
	case "disconnect":
		he.Kind = HarnessDisconnect
	case "flap":
		he.Kind = HarnessFlap
	default:
		return he, fmt.Errorf("unknown kind %q (panic, stall, err, disconnect, flap, or trunc)", kind)
	}
	cell := where
	if c, n, ok := strings.Cut(where, "x"); ok {
		if he.Kind == HarnessTrunc {
			return he, fmt.Errorf("trunc takes a bare append ordinal, not an attempt count")
		}
		cell = c
		v, err := strconv.Atoi(strings.TrimSpace(n))
		if err != nil || v <= 0 {
			return he, fmt.Errorf("bad attempt count %q", n)
		}
		he.Fails = v
	}
	v, err := strconv.Atoi(strings.TrimSpace(cell))
	if err != nil || v < 0 {
		return he, fmt.Errorf("bad cell index %q", cell)
	}
	if he.Kind == HarnessTrunc && v == 0 {
		return he, fmt.Errorf("trunc append ordinal is 1-based")
	}
	he.Cell = v
	return he, nil
}

// anyClasses is the draw set for machine:any entries.
var anyClasses = []secmem.InjectClass{
	secmem.InjectCiphertext, secmem.InjectMAC, secmem.InjectMinor,
	secmem.InjectMajor, secmem.InjectNode,
}

// Injector resolves the plan's machine-level entries against a seed and
// returns a secmem.Injector scheduling them, or nil when the plan has
// none. Resolution is deterministic: auto entries draw ordinals (and,
// for "any", classes) from an arch.NewRNG stream split off the seed, so
// one (spec, seed) pair always plans the identical injection schedule.
func (p *Plan) Injector(seed uint64) *Injector {
	if !p.HasMachine() {
		return nil
	}
	in := &Injector{sched: make(map[uint64][]secmem.InjectClass)}
	rng := arch.NewRNG(seed, 0xFA, 0x17)
	for _, me := range p.Machine {
		at := me.At
		if len(at) == 0 {
			at = make([]uint64, me.Auto)
			for i := range at {
				at[i] = 1 + rng.Uint64()%me.Horizon
			}
			sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
		}
		for _, seq := range at {
			cl := me.Class
			if me.Any {
				cl = anyClasses[rng.Uint64()%uint64(len(anyClasses))]
			}
			in.sched[seq] = append(in.sched[seq], cl)
			in.planned++
		}
	}
	return in
}

// Injector schedules machine-level corruptions by access ordinal. It
// implements secmem.Injector. One injector serves one machine (the
// controller is single-threaded; so is this).
type Injector struct {
	sched   map[uint64][]secmem.InjectClass
	pending []secmem.InjectClass
	planned int
	fired   int
}

// Inject implements secmem.Injector. Ciphertext and MAC corruptions due
// at a write are deferred to the next read: a write overwrites both, so
// injecting them there would be self-healing noise instead of a
// detectable fault.
func (in *Injector) Inject(seq uint64, b arch.BlockID, write bool) []secmem.InjectClass {
	due := in.sched[seq]
	if len(due) == 0 && (write || len(in.pending) == 0) {
		return nil
	}
	delete(in.sched, seq)
	var out []secmem.InjectClass
	if !write && len(in.pending) > 0 {
		out = append(out, in.pending...)
		in.pending = in.pending[:0]
	}
	for _, cl := range due {
		if write && (cl == secmem.InjectCiphertext || cl == secmem.InjectMAC) {
			in.pending = append(in.pending, cl)
			continue
		}
		out = append(out, cl)
	}
	in.fired += len(out)
	return out
}

// Outstanding returns how many planned injections have not fired yet —
// still scheduled at future ordinals, or deferred waiting for a read.
// A probe that claims full coverage must drive this to zero.
func (in *Injector) Outstanding() int { return in.planned - in.fired }
