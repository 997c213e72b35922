package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"metaleak/internal/arch"
	"metaleak/internal/core"
	"metaleak/internal/faults"
	"metaleak/internal/machine"
	"metaleak/internal/stats"
)

// The sweep engine crosses the machine.DesignPoint ablation axes into a
// grid of cells, runs every cell as an independent trial on the worker
// pool, and aggregates replications per grid point with the mergeable
// accumulators. Unlike the figure experiments — which fail the whole run
// on any error — a sweep is exploratory: a cell whose design point is
// broken (say, a minor width the tree rejects) reports its error in the
// row and the rest of the grid still completes.

// SweepAxes enumerates the design-point grid of `metaleak sweep`. The
// cross product Configs x MinorBits x MetaKB x Noise, replicated Seeds
// times, defines the cell list; every cell's machine seed is derived
// from (Seed, axis indices, rep) through an arch.NewRNG stream, so the
// grid shape — not the completion order — determines every result.
type SweepAxes struct {
	Configs   []string      // base design points: "sct", "ht", "sgx"
	MinorBits []uint        // SC/SCT minor counter widths
	MetaKB    []int         // metadata cache sizes
	Noise     []arch.Cycles // background-traffic burst intervals (0 = off)
	Seeds     int           // replications per grid point
	Seed      uint64        // base seed
	Bits      int           // covert transmission length per cell

	// Set holds "Field=value" DesignPoint overrides applied to every
	// cell's base design point before the axis fields — so the axes win
	// on MinorBits/MetaKB/NoiseInterval (override those through the axis
	// itself; the CLI's -set remaps them automatically). Overrides are
	// part of the sweep's identity: they feed the checkpoint fingerprint.
	Set []string
}

// DefaultSweepAxes returns a single-cell grid at the paper's SCT design
// point — the identity sweep, useful as a smoke test.
func DefaultSweepAxes() SweepAxes {
	return SweepAxes{
		Configs:   []string{"sct"},
		MinorBits: []uint{7},
		MetaKB:    []int{256},
		Noise:     []arch.Cycles{0},
		Seeds:     1,
		Bits:      120,
	}
}

// SweepCell is one point of the expanded grid.
type SweepCell struct {
	Index     int // position in deterministic grid order
	Config    string
	MinorBits uint
	MetaKB    int
	Noise     arch.Cycles
	Rep       int
	Seed      uint64 // derived machine seed for this cell
	// MinorNA marks a cell whose design point ignores MinorBits (e.g.
	// sgx: MoC counters + SIT's hardwired 56-bit counters). The minor
	// axis is collapsed to one such cell per (config, meta, noise, rep)
	// and rendered "na", so the grid never reports minor-width variation
	// that no machine actually had.
	MinorNA bool `json:",omitempty"`
}

// MinorLabel renders the cell's minor-width axis value; "na" when the
// design point ignores it.
func (c SweepCell) MinorLabel() string {
	if c.MinorNA {
		return "na"
	}
	return fmt.Sprintf("%d", c.MinorBits)
}

// SweepRow is one cell's measurements. Err is non-empty when the cell
// failed (the rest of the sweep is unaffected). Under a retry policy a
// failed cell is quarantined: Quarantined marks it and Attempts records
// the attempt budget it consumed. Both stay zero outside retry runs, so
// plain sweeps render byte-identically to what they always did.
type SweepRow struct {
	SweepCell
	CovertAccuracy  float64
	CyclesPerBit    float64
	MonitorAccuracy float64
	Err             string `json:",omitempty"`
	Attempts        int    `json:",omitempty"`
	Quarantined     bool   `json:",omitempty"`
}

// CSVHeader returns the column names of CSVRecord.
func CSVHeader() []string {
	return []string{"config", "minor_bits", "meta_kb", "noise", "rep", "seed",
		"covert_accuracy", "cycles_per_bit", "monitor_accuracy", "err", "attempts", "quarantined"}
}

// CSVRecord renders the row for `metaleak sweep`'s CSV output.
func (r SweepRow) CSVRecord() []string {
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
		r.MinorLabel(),
		fmt.Sprintf("%d", r.MetaKB),
		fmt.Sprintf("%d", r.Noise),
		fmt.Sprintf("%d", r.Rep),
		fmt.Sprintf("%d", r.Seed),
		fmt.Sprintf("%.4f", r.CovertAccuracy),
		fmt.Sprintf("%.1f", r.CyclesPerBit),
		fmt.Sprintf("%.4f", r.MonitorAccuracy),
		r.Err,
		attempts,
		quarantined,
	}
}

// LongHeader returns the column names of LongRecords — the long/tidy
// output format: one (cell, metric, value) record per measurement,
// ready for a plotting library's group-by without any reshaping.
func LongHeader() []string {
	return []string{"config", "minor_bits", "meta_kb", "noise", "rep", "seed", "metric", "value"}
}

// LongRecords renders the row in long format: one record per metric; a
// failed cell yields a single "err" record carrying the message.
func (r SweepRow) LongRecords() [][]string {
	key := []string{
		r.Config,
		r.MinorLabel(),
		fmt.Sprintf("%d", r.MetaKB),
		fmt.Sprintf("%d", r.Noise),
		fmt.Sprintf("%d", r.Rep),
		fmt.Sprintf("%d", r.Seed),
	}
	mk := func(metric, value string) []string {
		return append(append(make([]string, 0, len(key)+2), key...), metric, value)
	}
	if r.Err != "" {
		out := [][]string{mk("err", r.Err)}
		if r.Quarantined {
			out = append(out, mk("quarantined_after_attempts", fmt.Sprintf("%d", r.Attempts)))
		}
		return out
	}
	return [][]string{
		mk("covert_accuracy", fmt.Sprintf("%.4f", r.CovertAccuracy)),
		mk("cycles_per_bit", fmt.Sprintf("%.1f", r.CyclesPerBit)),
		mk("monitor_accuracy", fmt.Sprintf("%.4f", r.MonitorAccuracy)),
	}
}

// Validate rejects axis values the machine builder would silently
// normalize to a different design point: minor width 0 (ctr.NewSC and
// buildTree both remap it to the 7-bit Table I default) and
// non-positive metadata cache sizes (NewSystem remaps to 256 KiB).
// Without this check the grid emits rows labeled as axis variation that
// ran byte-identical machines. Negative Seeds and Bits are rejected for
// the same reason; zero selects the default.
func (a SweepAxes) Validate() error {
	if a.Seeds < 0 {
		return fmt.Errorf("sweep: %d seeds would be silently normalized to 1; pass a positive count (0 selects the default)", a.Seeds)
	}
	if a.Bits < 0 {
		return fmt.Errorf("sweep: bit budget %d would be silently normalized to the %d-bit default; pass a positive budget (0 selects the default)", a.Bits, DefaultSweepAxes().Bits)
	}
	for _, m := range a.MinorBits {
		if m == 0 {
			return fmt.Errorf("sweep: minor width 0 would be silently normalized to the 7-bit default; pass an explicit width in 1..16")
		}
		if m > 16 {
			return fmt.Errorf("sweep: minor width %d exceeds the 16-bit minor counter storage", m)
		}
	}
	for _, kb := range a.MetaKB {
		if kb <= 0 {
			return fmt.Errorf("sweep: metadata cache size %d KiB would be silently normalized to the 256 KiB default; pass a positive size", kb)
		}
	}
	return nil
}

// Cells expands the grid in deterministic nested order (configs
// outermost, reps innermost). For a config whose resolved design point
// ignores MinorBits the minor axis is collapsed to a single MinorNA
// cell — expanding it would produce rows labeled as different minor
// widths that ran identical machines.
func (a SweepAxes) Cells() []SweepCell {
	// Best-effort parse here: Sweep validates overrides up front;
	// unknown configs stay fully expanded and fail per cell, in-row.
	ovs, _ := machine.ParseOverrides(a.Set)
	var cells []SweepCell
	for ci, cfg := range a.Configs {
		minorNA := false
		if base, _, err := sweepConfig(cfg); err == nil {
			if machine.ApplyOverrides(&base, ovs) == nil {
				minorNA = !base.UsesMinorBits()
			}
		}
		for mi, minor := range a.MinorBits {
			if minorNA {
				if mi > 0 {
					continue
				}
				minor = 0
			}
			for ki, kb := range a.MetaKB {
				for ni, noise := range a.Noise {
					for rep := 0; rep < a.Seeds; rep++ {
						cells = append(cells, SweepCell{
							Index:     len(cells),
							Config:    cfg,
							MinorBits: minor,
							MetaKB:    kb,
							Noise:     noise,
							Rep:       rep,
							MinorNA:   minorNA,
							Seed: arch.NewRNG(a.Seed,
								uint64(ci), uint64(mi), uint64(ki), uint64(ni), uint64(rep)).Uint64(),
						})
					}
				}
			}
		}
	}
	return cells
}

// sweepConfig resolves a config name to its base design point and the
// tree level the attacks target (the SGX calibration shares at L1, the
// simulated designs at L0).
func sweepConfig(name string) (machine.DesignPoint, int, error) {
	switch strings.ToLower(name) {
	case "sct":
		return machine.ConfigSCT(), 0, nil
	case "ht":
		return machine.ConfigHT(), 0, nil
	case "sgx":
		return machine.ConfigSGX(), 1, nil
	}
	return machine.DesignPoint{}, 0, fmt.Errorf("sweep: unknown config %q (sct, ht, or sgx)", name)
}

// runSweepCell measures one cell: the MetaLeak-T covert channel's bit
// accuracy and cost, and the single-node monitor's classification
// accuracy, each on its own machine seeded from the cell. Overrides
// apply before the axis fields, so the axes win on the fields they own.
func runSweepCell(c SweepCell, bits int, ovs []machine.FieldOverride) (SweepRow, error) {
	row := SweepRow{SweepCell: c}
	base, level, err := sweepConfig(c.Config)
	if err != nil {
		return row, err
	}
	if err := machine.ApplyOverrides(&base, ovs); err != nil {
		return row, err
	}
	if !c.MinorNA {
		base.MinorBits = c.MinorBits
	}
	base.MetaKB = c.MetaKB
	base.NoiseInterval = c.Noise
	if c.Noise > 0 && base.NoisePages == 0 {
		base.NoisePages = 1024
	}

	// Covert-channel probe.
	dp := base
	dp.Seed = arch.NewRNG(c.Seed, 1).Uint64()
	sys := machine.NewSystem(dp)
	trojan, spy := attackerPair(sys)
	ch, err := core.NewCovertT(trojan, spy, level)
	if err != nil {
		return row, err
	}
	rng := arch.NewRNG(c.Seed, 2)
	start := sys.Now()
	for i := 0; i < bits; i++ {
		ch.SendBit(rng.Bool(0.5))
	}
	row.CovertAccuracy = ch.Accuracy()
	row.CyclesPerBit = ch.CyclesPerBit(sys.Now() - start)

	// Monitor probe.
	dpM := base
	dpM.Seed = arch.NewRNG(c.Seed, 3).Uint64()
	sysM := machine.NewSystem(dpM)
	attacker := coreAttacker(sysM)
	vicPage := sysM.AllocPage(1)
	m, err := attacker.NewMonitor(vicPage, level)
	if err != nil {
		return row, err
	}
	m.Calibrate(8)
	row.MonitorAccuracy, _ = scoreRounds(sysM, vicPage, 40, m.Evict, m.Reload)
	return row, nil
}

// SweepOptions configures how a sweep executes — none of it changes
// what the cells compute, only how failures and durability are handled,
// so every option combination yields byte-identical rows for the cells
// that succeed.
type SweepOptions struct {
	// Workers caps concurrent cells; <= 0 selects GOMAXPROCS.
	Workers int
	// Checkpoint, when non-empty, persists completed rows to this file
	// and resumes from it.
	Checkpoint string
	// Timeout bounds each cell attempt; 0 disables stall detection.
	Timeout time.Duration
	// Retries grants failed cells extra attempts; a cell that exhausts
	// them is quarantined (reported in its row, excluded from resume's
	// completed set so a later run retries it).
	Retries int
	// Backoff paces retry attempts; nil retries immediately.
	Backoff func(attempt int) time.Duration
	// Faults, when non-nil, injects the plan's harness-level failures:
	// trial panics/stalls/errors by cell index, and checkpoint-file
	// truncation. Machine-level faults do not go here — they travel as a
	// FaultSpec design-point override in the axes, where they are part
	// of the sweep's identity.
	Faults *faults.Harness
	// Log, when non-nil, receives human-readable warnings (e.g. a torn
	// checkpoint line salvaged at resume). Results never depend on it.
	Log func(format string, args ...any)
}

// Sweep runs the whole grid with at most `workers` cells in flight and
// returns one row per cell in grid order. Cell failures land in the
// rows' Err fields. Cancellation mid-grid returns the rows of every
// cell that did complete (still in grid order) alongside the context's
// error — Ctrl-C near the end of a long sweep reports the finished
// work instead of discarding it.
func Sweep(ctx context.Context, axes SweepAxes, workers int) ([]SweepRow, error) {
	return SweepOpts(ctx, axes, SweepOptions{Workers: workers})
}

// SweepOpts runs the grid under the full execution policy: bounded
// per-cell deadlines, bounded retries with deterministic backoff, cell
// quarantine, checkpoint durability with torn-line salvage, and
// (under test) injected harness faults. The grid's results remain a
// pure function of the axes: policy decides whether a cell's row is a
// measurement or a quarantine report, never what the measurement is.
func SweepOpts(ctx context.Context, axes SweepAxes, opts SweepOptions) ([]SweepRow, error) {
	g, err := newSweepGrid(axes)
	if err != nil {
		return nil, err
	}
	return g.runPool(ctx, opts)
}

// newSweepGrid validates and normalizes the axes, parses and vets the
// design-point overrides, and expands the grid — the shared prologue of
// every sweep path, in-process, coordinator and worker.
func newSweepGrid(axes SweepAxes) (*grid[SweepCell, SweepRow], error) {
	if err := axes.Validate(); err != nil {
		return nil, err
	}
	axes = axes.normalized()
	ovs, err := parseSet("sweep", axes.Set)
	if err != nil {
		return nil, err
	}
	return axes.asGrid(ovs), nil
}

// asGrid is the engine's view of normalized axes whose cells apply ovs.
func (a SweepAxes) asGrid(ovs []machine.FieldOverride) *grid[SweepCell, SweepRow] {
	return &grid[SweepCell, SweepRow]{
		kind:        "sweep",
		format:      checkpointFormat,
		covers:      "configs, widths, sizes, noise, seeds, bits, or -set overrides",
		fingerprint: a.Fingerprint(),
		axes:        a,
		cells:       a.Cells(),
		runCell:     func(c SweepCell) (SweepRow, error) { return runSweepCell(c, a.Bits, ovs) },
		failed: func(c SweepCell, err string, attempts int, quarantined bool) SweepRow {
			return SweepRow{SweepCell: c, Err: err, Attempts: attempts, Quarantined: quarantined}
		},
	}
}

func (c SweepCell) cellIndex() int    { return c.Index }
func (r SweepRow) rowCell() SweepCell { return r.SweepCell }
func (r SweepRow) rowErr() string     { return r.Err }

// SweepPoint aggregates one grid point's replications.
type SweepPoint struct {
	Config    string
	MinorBits uint
	MinorNA   bool `json:",omitempty"`
	MetaKB    int
	Noise     arch.Cycles
	Covert    stats.MeanVar
	Monitor   stats.MeanVar
	Errs      int
}

// MinorLabel renders the point's minor-width axis value; "na" when the
// config's design point ignores it.
func (p SweepPoint) MinorLabel() string {
	if p.MinorNA {
		return "na"
	}
	return fmt.Sprintf("%d", p.MinorBits)
}

// Aggregate folds the rows' replications per grid point, preserving grid
// order. The accumulators merge associatively, so the fold is
// independent of how the rows were produced. MinorNA rows aggregate
// under the "na" label, never as distinct minor-width points.
func (a SweepAxes) Aggregate(rows []SweepRow) []SweepPoint {
	byKey := map[string]*SweepPoint{}
	var order []*SweepPoint
	for _, r := range rows {
		key := fmt.Sprintf("%s/%s/%d/%d", r.Config, r.MinorLabel(), r.MetaKB, r.Noise)
		p := byKey[key]
		if p == nil {
			p = &SweepPoint{Config: r.Config, MinorBits: r.MinorBits, MinorNA: r.MinorNA,
				MetaKB: r.MetaKB, Noise: r.Noise}
			byKey[key] = p
			order = append(order, p)
		}
		if r.Err != "" {
			p.Errs++
			continue
		}
		p.Covert.Add(r.CovertAccuracy)
		p.Monitor.Add(r.MonitorAccuracy)
	}
	out := make([]SweepPoint, len(order))
	for i, p := range order {
		out[i] = *p
	}
	return out
}
