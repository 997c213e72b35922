package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"metaleak/internal/bench"
)

// benchCmd runs the substrate microbenchmarks and the fixed-grid sweep
// throughput measurement (host time — explicitly outside the determinism
// contract, see DESIGN.md §11) and emits or gates the machine-readable
// performance record committed as BENCH_<pr>.json.
func benchCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the record as JSON on stdout")
	out := fs.String("out", "", "write the JSON record to FILE")
	gate := fs.String("gate", "", "compare against the committed record in FILE; exit non-zero on a >tol ns/op regression or any rise in allocs/op")
	tol := fs.Float64("tol", 10, "gate tolerance: maximum tolerated ns/op regression, in percent")
	baseline := fs.Bool("baseline", false, "embed the recorded pre-PR-8 seed measurements as the record's baseline")
	if _, err := parseInterleaved(fs, args); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "# bench: running substrate microbenchmarks (host time; results vary by machine)")
	rec, err := bench.Run()
	if err != nil {
		return err
	}
	if *baseline {
		rec.Baseline = bench.SeedBaseline()
	}
	names := make([]string, 0, len(rec.Benchmarks))
	for name := range rec.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Benchmarks[name]
		fmt.Fprintf(os.Stderr, "# %-18s %12.0f ns/op %8d B/op %6d allocs/op\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	fmt.Fprintf(os.Stderr, "# %-18s %12.2f cells/sec (%d-cell fixed grid)\n",
		"Sweep", rec.Sweep.CellsPerSec, rec.Sweep.Cells)

	if *asJSON || *out != "" {
		blob, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		blob = append(blob, '\n')
		if *asJSON {
			if _, err := os.Stdout.Write(blob); err != nil {
				return fmt.Errorf("bench: %w", err)
			}
		}
		if *out != "" {
			if err := os.WriteFile(*out, blob, 0o644); err != nil {
				return fmt.Errorf("bench: %w", err)
			}
			fmt.Fprintf(os.Stderr, "# bench: wrote %s\n", *out)
		}
	}

	if *gate != "" {
		blob, err := os.ReadFile(*gate)
		if err != nil {
			return fmt.Errorf("bench: gate: %w", err)
		}
		var prev bench.Record
		if err := json.Unmarshal(blob, &prev); err != nil {
			return fmt.Errorf("bench: gate: %s: %w", *gate, err)
		}
		if prev.Schema != bench.Schema {
			return fmt.Errorf("bench: gate: %s has schema %q, want %q", *gate, prev.Schema, bench.Schema)
		}
		regs := bench.Gate(prev, rec, *tol/100)
		if len(regs) == 0 {
			fmt.Fprintf(os.Stderr, "# bench: gate PASS against %s (tolerance %.0f%%)\n", *gate, *tol)
			return nil
		}
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "# bench: REGRESSION %s\n", r)
		}
		return fmt.Errorf("bench: %d regression(s) vs %s (ns/op beyond %.0f%% or more allocs/op)", len(regs), *gate, *tol)
	}
	return nil
}
