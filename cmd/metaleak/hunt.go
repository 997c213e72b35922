package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"metaleak/internal/experiments"
	"metaleak/internal/hunt"
	"metaleak/internal/machine"
)

// huntCmd is the CLI face of the differential leakage fuzzer: expand a
// (config x program x secret-pair) grid, run every pair twice, and emit
// one verdict row per cell. It shares the sweep's execution machinery —
// -par, -checkpoint, -set, -faults, -workers/-listen — and its
// byte-identical-output contract.
func huntCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hunt", flag.ContinueOnError)
	configs := fs.String("configs", "sct", "comma-separated design points (sct,ht,sgx)")
	programs := fs.Int("programs", 4, "generated victim programs per config")
	pairs := fs.Int("pairs", 2, "differential secret pairs per program")
	ops := fs.Int("ops", 64, "operations per generated program")
	secretLen := fs.Int("secret-len", 8, "secret length in bytes")
	seed := fs.Uint64("seed", 0, "base seed (programs, secrets and machines all derive from it)")
	asJSON := fs.Bool("json", false, "emit rows and summary as JSON (default CSV)")
	inventory := fs.String("inventory", "", "cross-check discovered channels against a secretflow leakage inventory FILE")
	ex := addExecFlags(fs, "max cells in flight (0 = GOMAXPROCS; output is identical for every value)")
	var sets multiFlag
	fs.Var(&sets, "set", "DesignPoint field override Field=value (repeatable, e.g. -set Contract=\"allow=lat,time\")")
	if _, err := parseInterleaved(fs, args); err != nil {
		return err
	}
	if err := positive("hunt", fs, "programs", "pairs", "ops", "secret-len"); err != nil {
		return err
	}

	axes := experiments.HuntAxes{
		Programs:  *programs,
		Pairs:     *pairs,
		Ops:       *ops,
		SecretLen: *secretLen,
		Seed:      *seed,
	}
	for _, c := range strings.Split(*configs, ",") {
		if c = strings.TrimSpace(c); c != "" {
			axes.Configs = append(axes.Configs, c)
		}
	}
	if len(axes.Configs) == 0 {
		return fmt.Errorf("hunt: -configs needs at least one design point")
	}
	// Unlike sweep, hunt has no grid axes to remap -set values onto: every
	// override passes straight through to the per-cell design point. The
	// machine seed stays cell-owned, as in sweep.
	for _, s := range sets {
		ov, err := machine.ParseOverride(s)
		if err != nil {
			return fmt.Errorf("hunt: -set: %w", err)
		}
		if ov.Field == "Seed" {
			return fmt.Errorf("hunt: set the base seed with -seed (per-cell machine seeds are derived from it)")
		}
		axes.Set = append(axes.Set, s)
	}

	return runGrid(ctx, "hunt", ex, explicitFlags(fs), &axes, &axes.Set, experiments.HuntOpts, experiments.HuntDispatch,
		func(a experiments.HuntAxes) int { return len(a.Cells()) },
		func(rows []experiments.HuntRow) error { return emitHunt(rows, *asJSON, *inventory) })
}

// emitHunt renders rows (CSV or JSON) on stdout, the divergence summary
// on stderr, and — with an inventory file — the static/dynamic
// cross-check report.
func emitHunt(rows []experiments.HuntRow, asJSON bool, inventoryPath string) error {
	sum := experiments.Summarize(rows)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Rows    []experiments.HuntRow
			Summary experiments.HuntSummary
		}{rows, sum}); err != nil {
			return err
		}
	} else {
		w := csv.NewWriter(os.Stdout)
		if err := w.Write(experiments.HuntCSVHeader()); err != nil {
			return err
		}
		for _, r := range rows {
			if err := w.Write(r.CSVRecord()); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "# hunt: %d cells, %d diverged, %d contract violations, %d missing required, %d errors\n",
		sum.Cells, sum.Diverged, sum.Violations, sum.Missing, sum.Errs)
	for _, ch := range hunt.Channels() {
		if n := sum.Channels[ch]; n > 0 {
			fmt.Fprintf(os.Stderr, "#   %-16s %d\n", ch, n)
		}
	}
	if inventoryPath == "" {
		return nil
	}
	counts, err := hunt.LoadInventory(inventoryPath)
	if err != nil {
		return fmt.Errorf("hunt: -inventory: %w", err)
	}
	var channels []string
	for _, ch := range hunt.Channels() {
		if sum.Channels[ch] > 0 {
			channels = append(channels, ch)
		}
	}
	for _, r := range hunt.CrossCheck(channels, counts) {
		if r.Sites == 0 {
			fmt.Fprintf(os.Stderr, "# cross-check %-16s UNPREDICTED: no committed leak site maps to it (looked for %s)\n",
				r.Channel, strings.Join(r.Static, ","))
		} else {
			fmt.Fprintf(os.Stderr, "# cross-check %-16s predicted by %d static sites (%s)\n",
				r.Channel, r.Sites, strings.Join(r.Static, ","))
		}
	}
	return nil
}
