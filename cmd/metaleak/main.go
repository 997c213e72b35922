// Command metaleak regenerates the paper's tables and figures on the
// simulated secure processors.
//
// Usage:
//
//	metaleak list
//	metaleak run <id>... | all   [-full] [-seed N] [-json] [-par N]
//	metaleak report              [-full] [-seed N] [-par N]
//	metaleak sweep               [-configs sct,ht] [-minor 6,7] [-meta 64,256]
//	                             [-noise 0,8000] [-seeds N] [-seed N] [-bits N]
//	                             [-set Field=value]... [-checkpoint FILE]
//	                             [-json|-long] [-par N]
//	                             [-workers N] [-listen ADDR] [-lease-timeout D] [-token T]
//	metaleak hunt                [-configs sct,ht] [-programs N] [-pairs N] [-ops N]
//	                             [-secret-len N] [-seed N] [-set Field=value]...
//	                             [-checkpoint FILE] [-inventory FILE] [-json] [-par N]
//	                             [-workers N] [-listen ADDR] [-lease-timeout D] [-token T]
//	metaleak worker -connect ADDR [-id NAME] [-hb D] [-token T] [-dial-retries N]
//	metaleak serve               [-addr ADDR] [-workers N] [-token T] [-state DIR]
//	                             [-worker-listen ADDR] [-lease-timeout D] [-retries N]
//	                             [-revive N] [-trial-timeout D]
//	metaleak trace jpeg|rsa      [-csv] [-bin FILE]
//	metaleak trace replay FILE   [-csv] [-bin OUT]
//	metaleak chaos               [-seed N] [-v]
//	metaleak bench               [-json] [-out FILE] [-gate FILE [-tol PCT]]
//
// Flags may be interleaved with positional arguments (`run fig6 -par 4`
// works). -par bounds how many trials run concurrently; results are
// byte-identical for every value, including 1 (the historic sequential
// behaviour). sweep's -checkpoint appends each completed cell to FILE
// and a rerun with the same axes resumes from it (a trailing line torn
// by a crash is salvaged and its cell re-run); -set overrides any
// DesignPoint field per cell; -long emits one (cell, metric, value) CSV
// row per measurement. run and sweep take -faults SPEC (a seeded fault
// plan, DESIGN.md §8: machine: entries corrupt metadata and must be
// detected, harness: entries fail trials and tear checkpoints),
// -retries N (failed cells retry, then quarantine), and
// -trial-timeout D (per-attempt deadline); chaos self-tests the fault
// engine end to end. sweep's -workers N shards the grid over N local
// worker processes (work-stealing leases over a private unix socket);
// -listen ADDR additionally accepts `metaleak worker -connect ADDR`
// processes from other machines. Distribution is pure scheduling:
// output stays byte-identical to -par runs, including when a worker is
// killed mid-run (its leased cells revoke after -lease-timeout or on
// disconnect and re-deal against the -retries budget). serve is the
// persistent sweep service: HTTP clients submit sweep specs, stream
// rows as they settle, and fetch CSV/JSON byte-identical to the CLI's;
// a supervised local worker fleet respawns dead workers with backoff,
// revoked leases are absorbed by a -revive budget, and a
// content-addressed cell cache plus per-sweep checkpoints make
// resubmitted or overlapping grids reuse every cell already computed.
// hunt is the differential leakage fuzzer (DESIGN.md §13): every cell
// runs one seeded random victim program twice under two secrets on the
// same machine seed and diffs the observation-projected metadata
// traces; any divergence is a side channel, classified to a named
// channel and judged against the design point's leakage contract, with
// -inventory FILE cross-checking discovered channels against the
// secretflow static leak-site inventory.
// Experiment IDs follow the paper: table1, fig6, fig7, fig8,
// fig11, fig12, fig14, fig15, fig15c, fig16, fig17, fig18; the
// design-space ablations ablctr, abltree, ablmeta, ablminor, ablnoise,
// ablsec; and the §IX defence evaluations defiso, defrand, defladder.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"metaleak/internal/arch"
	"metaleak/internal/experiments"
	"metaleak/internal/faults"
	"metaleak/internal/jpeg"
	"metaleak/internal/machine"
	"metaleak/internal/mpi"
	"metaleak/internal/runner"
	"metaleak/internal/trace"
	"metaleak/internal/victim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "metaleak:", err)
		os.Exit(1)
	}
}

// parseInterleaved parses fs against args, collecting positional
// arguments that may be interleaved with flags. Go's flag package stops
// at the first positional; re-parsing the remainder makes both
// `run -par 4 fig6` and `run fig6 -par 4` work.
func parseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		args = fs.Args()
		if len(args) == 0 {
			return pos, nil
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	case "run":
		return runCmd(ctx, args[1:])
	case "report":
		return reportCmd(ctx, args[1:])
	case "sweep":
		return sweepCmd(ctx, args[1:])
	case "hunt":
		return huntCmd(ctx, args[1:])
	case "worker":
		return workerCmd(ctx, args[1:])
	case "serve":
		return serveCmd(ctx, args[1:])
	case "trace":
		return traceCmd(args[1:])
	case "chaos":
		return chaosCmd(ctx, args[1:])
	case "bench":
		return benchCmd(args[1:])
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func runCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	full := fs.Bool("full", false, "paper-scale sample counts (slow)")
	seed := fs.Uint64("seed", 0, "experiment seed")
	asJSON := fs.Bool("json", false, "emit results as JSON")
	par := fs.Int("par", 0, "max trials in flight (0 = GOMAXPROCS; output is identical for every value)")
	faultSpec := fs.String("faults", "", "harness fault plan (harness:KIND@TRIAL[xN] entries; see DESIGN.md §8)")
	retries := fs.Int("retries", 0, "extra attempts for a failed trial")
	trialTimeout := fs.Duration("trial-timeout", 0, "per-attempt trial deadline (0 = none)")
	ids, err := parseInterleaved(fs, args)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		usage()
		return fmt.Errorf("run: no experiment ids")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	var harness *faults.Harness
	if *faultSpec != "" {
		plan, err := faults.Parse(*faultSpec)
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		if plan.HasMachine() {
			return fmt.Errorf("run: machine-level fault entries attach to design points; use `sweep -faults` (or -set FaultSpec=...), which routes them into every cell's machine")
		}
		harness = plan.NewHarness()
	}
	pol := runner.Policy{Workers: *par, Timeout: *trialTimeout, Retries: *retries}
	if *retries > 0 {
		pol.Backoff = runner.ExpBackoff(50 * time.Millisecond)
	}
	opts := experiments.Default()
	if *full {
		opts = experiments.Full()
	}
	opts.Seed = *seed
	for _, id := range ids {
		if _, ok := experiments.Registry[id]; !ok {
			return fmt.Errorf("unknown experiment %q (try 'metaleak list')", id)
		}
		// Wall-clock time here is operator progress output only — it
		// never feeds results, which are all in simulated cycles. This
		// is the one sanctioned use, suppressed for cmd/metalint by the
		// directive below; the syntax is
		//
		//	//metalint:allow <analyzer>[,<analyzer>...] [reason]
		//
		// on the flagged line or the line directly above it.
		//metalint:allow wallclock operator-facing experiment runtime
		start := time.Now()
		res, err := experiments.RunPolicy(ctx, id, opts, pol, harness)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				return err
			}
		} else {
			fmt.Print(res)
			//metalint:allow wallclock operator-facing experiment runtime
			fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
	}
	return nil
}

func reportCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	full := fs.Bool("full", false, "paper-scale sample counts (slow)")
	seed := fs.Uint64("seed", 0, "experiment seed")
	par := fs.Int("par", 0, "max trials in flight (0 = GOMAXPROCS)")
	if _, err := parseInterleaved(fs, args); err != nil {
		return err
	}
	opts := experiments.Default()
	if *full {
		opts = experiments.Full()
	}
	opts.Seed = *seed
	md, err := experiments.ReportContext(ctx, opts, *par)
	if err != nil {
		return err
	}
	fmt.Print(md)
	return nil
}

// multiFlag collects a repeatable string flag (-set A=1 -set B=2).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// listFlag parses a comma-separated list of unsigned integers.
func listFlag(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad list element %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func sweepCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	configs := fs.String("configs", "sct", "comma-separated design points (sct,ht,sgx)")
	minor := fs.String("minor", "7", "comma-separated minor counter widths")
	meta := fs.String("meta", "256", "comma-separated metadata cache sizes (KiB)")
	noise := fs.String("noise", "0", "comma-separated noise burst intervals (cycles, 0 = off)")
	seeds := fs.Int("seeds", 3, "replications per grid point")
	seed := fs.Uint64("seed", 0, "base seed")
	bits := fs.Int("bits", 120, "covert transmission length per cell")
	asJSON := fs.Bool("json", false, "emit rows and aggregates as JSON (default CSV)")
	long := fs.Bool("long", false, "emit long-format CSV: one (cell, metric, value) row per measurement")
	ex := addExecFlags(fs, "max cells in flight (0 = GOMAXPROCS)")
	var sets multiFlag
	fs.Var(&sets, "set", "DesignPoint field override Field=value (repeatable, e.g. -set FastCrypto=true)")
	if _, err := parseInterleaved(fs, args); err != nil {
		return err
	}
	if err := positive("sweep", fs, "seeds", "bits"); err != nil {
		return err
	}
	if *asJSON && *long {
		return fmt.Errorf("sweep: -long is a CSV shape; drop -json (its rows are already structured)")
	}
	axes := experiments.SweepAxes{Seeds: *seeds, Seed: *seed, Bits: *bits}
	for _, c := range strings.Split(*configs, ",") {
		if c = strings.TrimSpace(c); c != "" {
			axes.Configs = append(axes.Configs, c)
		}
	}
	minors, err := listFlag(*minor)
	if err != nil {
		return fmt.Errorf("sweep: -minor: %w", err)
	}
	for _, m := range minors {
		axes.MinorBits = append(axes.MinorBits, uint(m))
	}
	metas, err := listFlag(*meta)
	if err != nil {
		return fmt.Errorf("sweep: -meta: %w", err)
	}
	for _, m := range metas {
		axes.MetaKB = append(axes.MetaKB, int(m))
	}
	noises, err := listFlag(*noise)
	if err != nil {
		return fmt.Errorf("sweep: -noise: %w", err)
	}
	for _, n := range noises {
		axes.Noise = append(axes.Noise, arch.Cycles(n))
	}
	if len(axes.Configs) == 0 || len(axes.MinorBits) == 0 || len(axes.MetaKB) == 0 || len(axes.Noise) == 0 {
		return fmt.Errorf("sweep: every axis needs at least one value")
	}
	explicit := explicitFlags(fs)
	if err := applySetFlags(&axes, sets, explicit); err != nil {
		return err
	}
	return runGrid(ctx, "sweep", ex, explicit, &axes, &axes.Set, experiments.SweepOpts, experiments.SweepDispatch,
		func(a experiments.SweepAxes) int { return len(a.Cells()) },
		func(rows []experiments.SweepRow) error { return emitSweep(axes, rows, *asJSON, *long) })
}

// explicitFlags returns the set of flags the user passed on the command
// line (as opposed to defaults).
func explicitFlags(fs *flag.FlagSet) map[string]bool {
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	return explicit
}

// applySetFlags folds -set overrides into the axes. Fields the sweep
// grid owns as axes (MinorBits, MetaKB, NoiseInterval) are remapped
// onto the axis itself — so `-set MinorBits=6` is exactly `-minor 6`,
// labels, seeds and all — and conflict with an explicit axis flag
// rather than silently losing to it. Everything else passes through to
// the per-cell design-point overrides.
func applySetFlags(axes *experiments.SweepAxes, sets []string, explicit map[string]bool) error {
	for _, s := range sets {
		ov, err := machine.ParseOverride(s)
		if err != nil {
			return fmt.Errorf("sweep: -set: %w", err)
		}
		switch ov.Field {
		case "MinorBits":
			if explicit["minor"] {
				return fmt.Errorf("sweep: -set MinorBits conflicts with -minor; the minor width is a grid axis, set it once")
			}
			v, err := strconv.ParseUint(ov.Value, 10, 0)
			if err != nil {
				return fmt.Errorf("sweep: -set %s: %w", s, err)
			}
			axes.MinorBits = []uint{uint(v)}
		case "MetaKB":
			if explicit["meta"] {
				return fmt.Errorf("sweep: -set MetaKB conflicts with -meta; the metadata size is a grid axis, set it once")
			}
			v, err := strconv.Atoi(ov.Value)
			if err != nil {
				return fmt.Errorf("sweep: -set %s: %w", s, err)
			}
			axes.MetaKB = []int{v}
		case "NoiseInterval":
			if explicit["noise"] {
				return fmt.Errorf("sweep: -set NoiseInterval conflicts with -noise; the noise interval is a grid axis, set it once")
			}
			v, err := strconv.ParseUint(ov.Value, 10, 64)
			if err != nil {
				return fmt.Errorf("sweep: -set %s: %w", s, err)
			}
			axes.Noise = []arch.Cycles{arch.Cycles(v)}
		case "Seed":
			return fmt.Errorf("sweep: set the base seed with -seed (per-cell machine seeds are derived from it)")
		default:
			axes.Set = append(axes.Set, s)
		}
	}
	return nil
}

// emitSweep renders rows (wide CSV, long CSV, or JSON) on stdout and
// the per-point aggregates on stderr.
func emitSweep(axes experiments.SweepAxes, rows []experiments.SweepRow, asJSON, long bool) error {
	if asJSON {
		return experiments.WriteSweepJSON(os.Stdout, axes, rows)
	}
	if err := experiments.WriteRowsCSV(os.Stdout, rows, long); err != nil {
		return err
	}
	for _, p := range axes.Aggregate(rows) {
		fmt.Fprintf(os.Stderr, "# %s minor=%s meta=%dKiB noise=%d: covert %.3f±%.3f monitor %.3f±%.3f (n=%d, %d failed)\n",
			p.Config, p.MinorLabel(), p.MetaKB, p.Noise,
			p.Covert.Mean, p.Covert.Std(), p.Monitor.Mean, p.Monitor.Std(), p.Covert.N, p.Errs)
	}
	return nil
}

func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	csvOut := fs.Bool("csv", false, "dump the retained events as CSV")
	binFile := fs.String("bin", "", "also dump the retained events as a binary MLT1 trace to FILE")
	pos, err := parseInterleaved(fs, args)
	if err != nil {
		return err
	}
	if len(pos) >= 1 && pos[0] == "replay" {
		if len(pos) != 2 {
			return fmt.Errorf("trace replay: need a trace file")
		}
		return runReplay(pos[1], *csvOut, *binFile)
	}
	if len(pos) != 1 {
		return fmt.Errorf("trace: need a victim (jpeg or rsa) or 'replay FILE'")
	}
	return runTrace(pos[0], *csvOut, *binFile)
}

// runTrace executes one victim on the SCT machine with an access recorder
// attached and prints the per-path summary (optionally the raw CSV and a
// binary MLT1 dump for later replay).
func runTrace(kind string, csvOut bool, binFile string) error {
	dp := machine.ConfigSCT()
	dp.SecurePages = 1 << 16
	sys := machine.NewSystem(dp)
	rec := trace.New(4096)
	rec.Attach(sys.System)
	proc := victim.NewProc(sys.System, 0)
	switch kind {
	case "jpeg":
		jv := victim.NewJPEGVictim(proc)
		im, err := jpeg.Synthetic(jpeg.PatternCircle, 32, 32)
		if err != nil {
			return err
		}
		if _, _, err := jv.Encode(im, nil); err != nil {
			return err
		}
	case "rsa":
		rv := victim.NewRSAVictim(proc)
		rv.ModExp(mpi.New(3), mpi.FromHex("deadbeefcafef00d"), mpi.FromHex("ffffffffffffffc5"), nil)
	default:
		return fmt.Errorf("trace: unknown victim %q (jpeg or rsa)", kind)
	}
	fmt.Print(rec.Summary())
	if binFile != "" {
		data, err := rec.MarshalBinary()
		if err != nil {
			return err
		}
		if err := os.WriteFile(binFile, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d events (%d bytes) to %s\n", len(rec.Events()), len(data), binFile)
	}
	if csvOut {
		return rec.WriteCSV(os.Stdout)
	}
	return nil
}

// runReplay loads a binary MLT1 trace and re-renders its summary — the
// archived trace is re-analyzable without re-running the simulation.
// With -bin OUT the normalized trace (decoded, oldest-first, re-delta-
// encoded) is written back out, so a replay can also canonicalize a
// foreign or hand-edited trace file.
func runReplay(file string, csvOut bool, binFile string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var rec trace.Recorder
	if err := rec.UnmarshalBinary(data); err != nil {
		var de *trace.DecodeError
		if errors.As(err, &de) && de.Record >= 0 {
			return fmt.Errorf("trace replay %s: file is truncated or corrupt at byte %d of %d, record %d: %w",
				file, de.Offset, len(data), de.Record, de.Err)
		}
		return fmt.Errorf("trace replay %s: %w", file, err)
	}
	fmt.Print(rec.Summary())
	if binFile != "" {
		out, err := rec.MarshalBinary()
		if err != nil {
			return err
		}
		if err := os.WriteFile(binFile, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d events (%d bytes) to %s\n", len(rec.Events()), len(out), binFile)
	}
	if csvOut {
		return rec.WriteCSV(os.Stdout)
	}
	return nil
}

func usage() {
	fmt.Println(`usage: metaleak list
       metaleak run <id>...|all [-full] [-seed N] [-json] [-par N]
       metaleak report [-full] [-seed N] [-par N]
       metaleak sweep [-configs sct,ht,sgx] [-minor 6,7] [-meta 64,256] [-noise 0,8000]
                      [-seeds N] [-seed N] [-bits N] [-set Field=value]...
                      [-checkpoint FILE] [-json|-long] [-par N]
                      [-workers N] [-listen ADDR] [-lease-timeout D] [-token T]
       metaleak hunt [-configs sct,ht,sgx] [-programs N] [-pairs N] [-ops N]
                     [-secret-len N] [-seed N] [-set Field=value]...
                     [-checkpoint FILE] [-inventory FILE] [-json] [-par N]
                     [-workers N] [-listen ADDR] [-lease-timeout D] [-token T]
       metaleak worker -connect ADDR [-id NAME] [-hb D] [-token T] [-dial-retries N]
       metaleak serve [-addr ADDR] [-workers N] [-token T] [-state DIR]
                      [-worker-listen ADDR] [-lease-timeout D] [-retries N] [-revive N]
       metaleak trace jpeg|rsa [-csv] [-bin FILE]
       metaleak trace replay FILE [-csv] [-bin OUT]
       metaleak chaos [-seed N] [-v]
       metaleak bench [-json] [-out FILE] [-gate FILE [-tol PCT]] [-baseline]

run and sweep accept -faults SPEC (fault plan, DESIGN.md §8),
-retries N, and -trial-timeout D; chaos self-tests the fault engine.
sweep -workers/-listen distributes cells across worker processes with
byte-identical output (DESIGN.md §9); worker attaches this machine to
a remote sweep coordinator. serve is the persistent sweep service
(DESIGN.md §12): submit specs over HTTP, stream rows as they settle,
share a content-addressed result cache across sweeps, and let a
supervised worker fleet self-heal through crashes. hunt is the
differential leakage fuzzer (DESIGN.md §13): seeded random victim
programs run twice under two secrets, trace divergence = side channel,
checked against each design point's leakage contract.`)
}
