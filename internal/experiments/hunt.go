package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"

	"metaleak/internal/arch"
	"metaleak/internal/hunt"
	"metaleak/internal/machine"
)

// The hunt engine drives the differential leakage fuzzer
// (internal/hunt) through the same spec/trial/merge harness as the
// sweep: a deterministic grid of (config x program x secret pair)
// cells, each an independent trial, each yielding one verdict row. The
// execution contract is identical — rows are a pure function of the
// axes and the cell index, so any -par worker count, any steal
// schedule, and any resume produce byte-identical output.

// HuntAxes enumerates the differential-fuzzing grid of `metaleak hunt`:
// every config is crossed with Programs generated victim programs and
// Pairs secret pairs per program.
type HuntAxes struct {
	Configs []string // base design points: "sct", "ht", "sgx"
	// Set holds "Field=value" DesignPoint overrides applied to every
	// cell (the sweep's -set mechanism, including Contract=... and
	// FaultSpec=...). Part of the grid's identity and fingerprint.
	Set []string
	// Programs is the number of generated victim programs per config;
	// Pairs the number of differential secret pairs per program.
	Programs int
	Pairs    int
	// Ops is each program's operation count; SecretLen each secret's
	// byte length.
	Ops       int
	SecretLen int
	Seed      uint64
}

// DefaultHuntAxes is the smoke grid: one config, a handful of programs.
func DefaultHuntAxes() HuntAxes {
	return HuntAxes{
		Configs:   []string{"sct"},
		Programs:  4,
		Pairs:     2,
		Ops:       64,
		SecretLen: 8,
	}
}

// normalized applies the defaults Hunt applies, so fingerprints agree
// with what actually runs.
func (a HuntAxes) normalized() HuntAxes {
	d := DefaultHuntAxes()
	if a.Programs <= 0 {
		a.Programs = d.Programs
	}
	if a.Pairs <= 0 {
		a.Pairs = d.Pairs
	}
	if a.Ops <= 0 {
		a.Ops = d.Ops
	}
	if a.SecretLen <= 0 {
		a.SecretLen = d.SecretLen
	}
	return a
}

// Validate rejects grids that cannot mean anything, and negative sizes,
// which normalization would silently replace by the defaults (zero
// selects the default).
func (a HuntAxes) Validate() error {
	if len(a.Configs) == 0 {
		return fmt.Errorf("hunt: no configs")
	}
	d := DefaultHuntAxes()
	for _, f := range []struct {
		name   string
		v, def int
	}{
		{"program count", a.Programs, d.Programs},
		{"pair count", a.Pairs, d.Pairs},
		{"op count", a.Ops, d.Ops},
		{"secret length", a.SecretLen, d.SecretLen},
	} {
		if f.v < 0 {
			return fmt.Errorf("hunt: %s %d would be silently normalized to the default %d; pass a positive value (0 selects the default)", f.name, f.v, f.def)
		}
	}
	return nil
}

// HuntCell is one point of the expanded grid: one program run twice
// under one secret pair on one machine seed.
type HuntCell struct {
	Index   int // position in deterministic grid order
	Config  string
	Program int
	Pair    int
	// ProgSeed generates the victim program, PairSeed the secret pair,
	// Seed the machine. All three derive from the base seed and the axis
	// indices, never from completion order.
	ProgSeed uint64
	PairSeed uint64
	Seed     uint64
}

// Cells expands the grid in deterministic nested order (configs
// outermost, pairs innermost). Programs are shared across configs by
// index — the same ProgSeed regardless of config — so per-config rows
// for the same program are directly comparable.
func (a HuntAxes) Cells() []HuntCell {
	a = a.normalized()
	var cells []HuntCell
	for ci, cfg := range a.Configs {
		for p := 0; p < a.Programs; p++ {
			for q := 0; q < a.Pairs; q++ {
				cells = append(cells, HuntCell{
					Index:    len(cells),
					Config:   cfg,
					Program:  p,
					Pair:     q,
					ProgSeed: arch.NewRNG(a.Seed, 0x50, uint64(p)).Uint64(),
					PairSeed: arch.NewRNG(a.Seed, 0x5E, uint64(p), uint64(q)).Uint64(),
					Seed:     arch.NewRNG(a.Seed, 0x3A, uint64(ci), uint64(p), uint64(q)).Uint64(),
				})
			}
		}
	}
	return cells
}

// HuntRow is one cell's verdict. Err is non-empty when the cell failed;
// the rest of the grid is unaffected.
type HuntRow struct {
	HuntCell
	hunt.Verdict
	Err         string `json:",omitempty"`
	Attempts    int    `json:",omitempty"`
	Quarantined bool   `json:",omitempty"`
}

// HuntCSVHeader returns the column names of HuntRow.CSVRecord.
func HuntCSVHeader() []string {
	return []string{"config", "program", "pair", "prog_seed", "pair_seed", "seed",
		"diverged", "channel", "first", "first_components", "components", "count",
		"violation", "missing", "obs_a", "obs_b", "contract", "err", "attempts", "quarantined"}
}

// CSVRecord renders the row for `metaleak hunt`'s CSV output.
func (r HuntRow) CSVRecord() []string {
	diverged := "false"
	if r.Diverged {
		diverged = "true"
	}
	quarantined := ""
	if r.Quarantined {
		quarantined = "true"
	}
	attempts := ""
	if r.Attempts > 0 {
		attempts = fmt.Sprintf("%d", r.Attempts)
	}
	return []string{
		r.Config,
		fmt.Sprintf("%d", r.Program),
		fmt.Sprintf("%d", r.Pair),
		fmt.Sprintf("%d", r.ProgSeed),
		fmt.Sprintf("%d", r.PairSeed),
		fmt.Sprintf("%d", r.Seed),
		diverged,
		r.Channel,
		fmt.Sprintf("%d", r.First),
		r.FirstComponents,
		r.Components,
		fmt.Sprintf("%d", r.Count),
		r.Violation,
		r.Missing,
		fmt.Sprintf("%d", r.ObsA),
		fmt.Sprintf("%d", r.ObsB),
		r.Contract,
		r.Err,
		attempts,
		quarantined,
	}
}

// runHuntCell runs one differential pair: regenerate the program and
// secrets from the cell's seeds, build the design point (overrides
// before the machine seed, which the cell owns), and judge the pair
// under the design's contract.
func runHuntCell(c HuntCell, a HuntAxes, ovs []machine.FieldOverride) (HuntRow, error) {
	row := HuntRow{HuntCell: c}
	base, _, err := sweepConfig(c.Config)
	if err != nil {
		return row, err
	}
	if err := machine.ApplyOverrides(&base, ovs); err != nil {
		return row, err
	}
	base.Seed = c.Seed
	prog := hunt.Generate(c.ProgSeed, a.Ops)
	sa, sb := hunt.Secrets(c.PairSeed, a.SecretLen)
	v, err := hunt.RunPair(base, prog, sa, sb)
	if err != nil {
		return row, err
	}
	row.Verdict = v
	return row, nil
}

// HuntSummary aggregates a hunt's rows: divergence and violation
// totals, and the channel census the acceptance criteria key on.
type HuntSummary struct {
	Cells      int
	Diverged   int
	Violations int
	Missing    int
	Errs       int
	// Channels counts classified divergences per channel name, rendered
	// in hunt.Channels() priority order by the CLI.
	Channels map[string]int
}

// Summarize folds the rows.
func Summarize(rows []HuntRow) HuntSummary {
	s := HuntSummary{Cells: len(rows), Channels: map[string]int{}}
	for _, r := range rows {
		if r.Err != "" {
			s.Errs++
			continue
		}
		if r.Diverged {
			s.Diverged++
			s.Channels[r.Channel]++
		}
		if r.Violation != "" {
			s.Violations++
		}
		if r.Missing != "" {
			s.Missing++
		}
	}
	return s
}

// HuntOpts runs the whole grid under the full execution policy — the
// hunt twin of SweepOpts, sharing its options type because the policy
// knobs (workers, checkpoint, deadlines, retries, harness faults) are
// engine-independent.
func HuntOpts(ctx context.Context, axes HuntAxes, opts SweepOptions) ([]HuntRow, error) {
	g, err := newHuntGrid(axes)
	if err != nil {
		return nil, err
	}
	return g.runPool(ctx, opts)
}

// HuntDispatch runs the grid distributed, like SweepDispatch:
// work-stealing leases over ln, checkpoint streaming, grid-order rows
// byte-identical to HuntOpts for any worker fleet. The result cache and
// OnRow hold sweep rows, so a hunt given either is refused.
func HuntDispatch(ctx context.Context, axes HuntAxes, opts SweepOptions, dopts DispatchOptions, ln net.Listener) ([]HuntRow, error) {
	g, err := newHuntGrid(axes)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return g.dispatch(ctx, opts, dopts, ln, dispatchHooks[HuntCell, HuntRow]{})
}

// newHuntGrid validates and normalizes the axes, parses and vets the
// design-point overrides, and expands the grid.
func newHuntGrid(axes HuntAxes) (*grid[HuntCell, HuntRow], error) {
	if err := axes.Validate(); err != nil {
		return nil, err
	}
	axes = axes.normalized()
	ovs, err := parseSet("hunt", axes.Set)
	if err != nil {
		return nil, err
	}
	return axes.asGrid(ovs), nil
}

// asGrid is the engine's view of normalized axes whose cells apply ovs.
func (a HuntAxes) asGrid(ovs []machine.FieldOverride) *grid[HuntCell, HuntRow] {
	return &grid[HuntCell, HuntRow]{
		kind:        "hunt",
		format:      huntCheckpointFormat,
		covers:      "configs, programs, pairs, ops, secret length, seed, or -set overrides",
		fingerprint: a.Fingerprint(),
		axes:        a,
		cells:       a.Cells(),
		runCell:     func(c HuntCell) (HuntRow, error) { return runHuntCell(c, a, ovs) },
		failed: func(c HuntCell, err string, attempts int, quarantined bool) HuntRow {
			return HuntRow{HuntCell: c, Err: err, Attempts: attempts, Quarantined: quarantined}
		},
	}
}

func (c HuntCell) cellIndex() int   { return c.Index }
func (r HuntRow) rowCell() HuntCell { return r.HuntCell }
func (r HuntRow) rowErr() string    { return r.Err }

// The hunt checkpoint is the sweep checkpoint's append log with its own
// format string and fingerprint: a hunt grid and a sweep grid are never
// interchangeable, so resuming one from the other fails loudly at the
// header, not at a row.

// huntCheckpointFormat identifies the file layout; bump on changes.
const huntCheckpointFormat = "metaleak-hunt-checkpoint/v1"

// Fingerprint identifies the hunt grid for checkpoint and dispatch
// compatibility: a hash of the expanded cell list (with every derived
// seed, covering the base seed transitively), the program/secret
// shapes, and the design-point overrides.
func (a HuntAxes) Fingerprint() string {
	a = a.normalized()
	h := sha256.New()
	fmt.Fprintf(h, "hunt/v1 seed=%d ops=%d secretlen=%d set=%q\n", a.Seed, a.Ops, a.SecretLen, a.Set)
	for _, c := range a.Cells() {
		fmt.Fprintf(h, "%d %s %d %d %d %d %d\n",
			c.Index, c.Config, c.Program, c.Pair, c.ProgSeed, c.PairSeed, c.Seed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HuntCheckpoint is the durable record of a hunt in progress.
type HuntCheckpoint = gridCheckpoint[HuntCell, HuntRow]
