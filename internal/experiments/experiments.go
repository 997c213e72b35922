// Package experiments regenerates every table and figure of the paper's
// evaluation (§V, §VI, §VIII, §IX-B) on the simulated secure processors.
// Each experiment returns a Result with the same rows/series the paper
// reports; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Every experiment is declared as a Spec: a list of independent Trials
// (each builds its own machines from seeds derived from Options.Seed
// and the trial's identity) plus a pure Merge that assembles the
// partials in trial-index order. internal/runner executes the trials on
// a bounded worker pool, so `metaleak run <id> -par N` produces
// byte-identical output for every N — including N=1, the historic
// sequential behaviour. Run executes one registered experiment.
//
// Experiments accept an Options to trade runtime for sample count; the
// zero value selects defaults sized for interactive runs, and Full()
// selects the paper-scale parameters.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"metaleak/internal/runner"
)

// Options scales the experiments.
type Options struct {
	// Samples scales per-class sample counts (Fig. 6/7/8).
	Samples int
	// Bits is the covert-channel transmission length (Fig. 11).
	Bits int
	// Symbols is the MetaLeak-C covert transmission length (Fig. 14).
	Symbols int
	// ImageSize is the square edge of the Fig. 15 victim images.
	ImageSize int
	// ExpBits is the RSA exponent length for Fig. 16.
	ExpBits int
	// PrimeBits is the RSA prime length for Fig. 17.
	PrimeBits int
	// Trials is the per-point repetition count for Fig. 18.
	Trials int
	// Seed perturbs every deterministic RNG in the run.
	Seed uint64
}

// Default returns interactive-scale options.
func Default() Options {
	return Options{
		Samples:   1000,
		Bits:      250,
		Symbols:   60,
		ImageSize: 48,
		ExpBits:   192,
		PrimeBits: 128,
		Trials:    40,
	}
}

// Full returns paper-scale options (minutes of runtime).
func Full() Options {
	return Options{
		Samples:   10000,
		Bits:      1000,
		Symbols:   1000,
		ImageSize: 64,
		ExpBits:   512,
		PrimeBits: 256,
		Trials:    100,
	}
}

func (o Options) withDefaults() Options {
	d := Default()
	if o.Samples == 0 {
		o.Samples = d.Samples
	}
	if o.Bits == 0 {
		o.Bits = d.Bits
	}
	if o.Symbols == 0 {
		o.Symbols = d.Symbols
	}
	if o.ImageSize == 0 {
		o.ImageSize = d.ImageSize
	}
	if o.ExpBits == 0 {
		o.ExpBits = d.ExpBits
	}
	if o.PrimeBits == 0 {
		o.PrimeBits = d.PrimeBits
	}
	if o.Trials == 0 {
		o.Trials = d.Trials
	}
	return o
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string // "fig6", "table1", ...
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry free-form findings (trace snippets, ASCII art).
	Notes []string
	// PaperClaim and Measured summarize the comparison for EXPERIMENTS.md.
	PaperClaim string
	Measured   string
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i < len(widths) {
					fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
				} else {
					sb.WriteString(c + "  ")
				}
			}
			sb.WriteString("\n")
		}
		line(r.Header)
		for _, row := range r.Rows {
			line(row)
		}
	}
	for _, n := range r.Notes {
		sb.WriteString(n + "\n")
	}
	if r.PaperClaim != "" {
		fmt.Fprintf(&sb, "paper:    %s\n", r.PaperClaim)
	}
	if r.Measured != "" {
		fmt.Fprintf(&sb, "measured: %s\n", r.Measured)
	}
	return sb.String()
}

// Registry maps experiment IDs to their spec constructors. A spec
// enumerates the experiment's independent trials plus the pure merge
// that assembles them (see spec.go); `Run` or Spec.Run executes one.
var Registry = map[string]func(Options) *Spec{
	"table1":    SpecTable1,
	"fig6":      SpecFig6,
	"fig7":      SpecFig7,
	"fig8":      SpecFig8,
	"fig11":     SpecFig11,
	"fig12":     SpecFig12,
	"fig14":     SpecFig14,
	"fig15":     SpecFig15,
	"fig15c":    SpecFig15C,
	"fig16":     SpecFig16,
	"fig17":     SpecFig17,
	"fig18":     SpecFig18,
	"ablctr":    SpecAblationCounters,
	"abltree":   SpecAblationTrees,
	"ablmeta":   SpecAblationMetaCache,
	"ablsec":    SpecAblationSecureOverhead,
	"defiso":    SpecDefenseIsolation,
	"defrand":   SpecDefenseRandomizedMeta,
	"ablminor":  SpecAblationMinorWidth,
	"defladder": SpecDefenseLadder,
	"ablnoise":  SpecAblationNoise,
}

// IDs returns the registered experiment IDs in a stable order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func cyc(v float64) string { return fmt.Sprintf("%.0f", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Markdown renders the result as a GitHub-flavoured markdown section —
// the building block of `metaleak report`.
func (r *Result) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### `%s` — %s\n\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		sb.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
		sb.WriteString("|" + strings.Repeat("---|", len(r.Header)) + "\n")
		for _, row := range r.Rows {
			sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
		sb.WriteString("\n")
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "\n") {
			sb.WriteString("```\n" + strings.TrimRight(n, "\n") + "\n```\n\n")
		} else {
			sb.WriteString(n + "\n\n")
		}
	}
	if r.PaperClaim != "" {
		fmt.Fprintf(&sb, "*Paper:* %s\n\n", r.PaperClaim)
	}
	if r.Measured != "" {
		fmt.Fprintf(&sb, "*Measured:* %s\n\n", r.Measured)
	}
	return sb.String()
}

// ReportContext regenerates the whole evaluation at the given trial
// parallelism. Every spec's trials are flattened into one runner pool —
// workers stay busy across experiment boundaries instead of draining at
// each figure — and each spec's merge consumes its own index-aligned
// slice of the partials, so the document is byte-identical for any
// worker count.
func ReportContext(ctx context.Context, o Options, workers int) (string, error) {
	ids := IDs()
	specs := make([]*Spec, len(ids))
	offsets := make([]int, len(ids))
	var flat []runner.Trial
	for i, id := range ids {
		specs[i] = Registry[id](o)
		offsets[i] = len(flat)
		flat = append(flat, specs[i].Trials...)
	}
	parts, err := runner.Run(ctx, flat, workers)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("# MetaLeak — regenerated evaluation\n\n")
	sb.WriteString("Produced by `metaleak report`; see EXPERIMENTS.md for the paper comparison.\n\n")
	for i, spec := range specs {
		res, err := spec.Merge(parts[offsets[i] : offsets[i]+len(spec.Trials)])
		if err != nil {
			return "", fmt.Errorf("%s: %w", ids[i], err)
		}
		sb.WriteString(res.Markdown())
	}
	return sb.String(), nil
}
