package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"metaleak/internal/experiments"
	"metaleak/internal/faults"
	"metaleak/internal/runner"
)

// This file is the execution half `sweep` and `hunt` share: one block
// of execution flags, one set of checks on them, and one run —
// in-process or on the -workers/-listen fleet — with one report of an
// interrupted run. Each command supplies only its axes and its output.

// execFlags holds the shared execution flags.
type execFlags struct {
	par, workers, retries             *int
	checkpoint, listen, token, faults *string
	leaseTimeout, trialTimeout        *time.Duration
}

// addExecFlags registers the execution flags on fs; parUsage is -par's
// help text.
func addExecFlags(fs *flag.FlagSet, parUsage string) *execFlags {
	return &execFlags{
		par:          fs.Int("par", 0, parUsage),
		checkpoint:   fs.String("checkpoint", "", "persist completed cells to FILE and resume from it on rerun"),
		workers:      fs.Int("workers", 0, "distributed: spawn N local `metaleak worker` processes and deal cells to them over a private socket"),
		listen:       fs.String("listen", "", "distributed: accept remote `metaleak worker -connect` processes on ADDR (host:port, unix:PATH, or /path)"),
		leaseTimeout: fs.Duration("lease-timeout", 10*time.Second, "distributed: silence window after which a worker's leased cells revoke and re-deal"),
		token:        fs.String("token", os.Getenv("METALEAK_TOKEN"), "distributed: shared auth token workers must present (default $METALEAK_TOKEN; empty = no auth)"),
		faults:       fs.String("faults", "", "fault plan (DESIGN.md §8): machine: entries corrupt metadata in every cell's machine, harness: entries fail trials and tear checkpoints"),
		retries:      fs.Int("retries", 0, "extra attempts for a failed cell before quarantine"),
		trialTimeout: fs.Duration("trial-timeout", 0, "per-attempt cell deadline (0 = none)"),
	}
}

// positive rejects a non-positive value of any of the named int flags:
// the engine reads zero as "use the default", so such a value would run
// the default grid under the flag's name.
func positive(cmd string, fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v <= 0 {
			return fmt.Errorf("%s: -%s %d: must be positive", cmd, name, v)
		}
	}
	return nil
}

// runGrid checks the execution flags against each other, routes a
// -faults plan — machine entries join the grid's identity as a
// FaultSpec override appended to *set, harness entries drive the run
// and the workers — and runs the grid at *axes: in-process through
// local, or through remote on the -workers/-listen fleet. emit renders
// the rows; an interrupted run emits the completed ones (cells counts
// the grid) before returning the cancellation.
func runGrid[A, R any](ctx context.Context, cmd string, ex *execFlags, explicit map[string]bool, axes *A, set *[]string,
	local func(context.Context, A, experiments.SweepOptions) ([]R, error),
	remote func(context.Context, A, experiments.SweepOptions, experiments.DispatchOptions, net.Listener) ([]R, error),
	cells func(A) int, emit func([]R) error) error {
	distributed := *ex.workers > 0 || *ex.listen != ""
	if distributed && explicit["par"] {
		return fmt.Errorf("%s: -par is the single-process pool width; with -workers/-listen concurrency is the attached worker count, drop -par", cmd)
	}
	if !distributed && explicit["lease-timeout"] {
		return fmt.Errorf("%s: -lease-timeout only applies to distributed runs; add -workers N or -listen ADDR", cmd)
	}
	if !distributed && explicit["token"] {
		return fmt.Errorf("%s: -token authenticates dispatch workers; add -workers N or -listen ADDR", cmd)
	}
	var harness *faults.Harness
	var harnessSpec string
	if *ex.faults != "" {
		plan, err := faults.Parse(*ex.faults)
		if err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
		if plan.HasMachine() {
			// Machine-level entries are design-point state: route them
			// through the override path so they join the grid's identity
			// (and the checkpoint fingerprint) like any other -set field.
			for _, s := range *set {
				if strings.HasPrefix(s, "FaultSpec=") {
					return fmt.Errorf("%s: -faults machine entries conflict with -set FaultSpec; pass the plan once", cmd)
				}
			}
			*set = append(*set, "FaultSpec="+plan.MachineSpec())
		}
		if plan.HasDisconnect() && !distributed {
			return fmt.Errorf("%s: harness:disconnect faults drop dispatch workers; they need a distributed run (-workers N or -listen ADDR)", cmd)
		}
		harness = plan.NewHarness()
		harnessSpec = plan.HarnessSpec()
	}
	opts := experiments.SweepOptions{
		Workers:    *ex.par,
		Checkpoint: *ex.checkpoint,
		Timeout:    *ex.trialTimeout,
		Retries:    *ex.retries,
		Faults:     harness,
		Log: func(format string, logArgs ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", logArgs...)
		},
	}
	if *ex.retries > 0 {
		opts.Backoff = runner.ExpBackoff(50 * time.Millisecond)
	}

	var rows []R
	var err error
	if distributed {
		dopts := experiments.DispatchOptions{LeaseTimeout: *ex.leaseTimeout, HarnessSpec: harnessSpec, Token: *ex.token}
		err = runWithFleet(ctx, *ex.workers, *ex.listen, *ex.token, func(ctx context.Context, ln net.Listener) error {
			var err error
			rows, err = remote(ctx, *axes, opts, dopts, ln)
			return err
		})
	} else {
		rows, err = local(ctx, *axes, opts)
	}
	if err != nil {
		if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && len(rows) > 0 {
			// Interrupted mid-grid: report the completed rows before
			// surfacing the cancellation.
			if emitErr := emit(rows); emitErr != nil {
				return emitErr
			}
			total := cells(*axes)
			if *ex.checkpoint != "" {
				fmt.Fprintf(os.Stderr, "# %s interrupted: %d/%d cells done, checkpointed to %s; rerun the same command to resume\n",
					cmd, len(rows), total, *ex.checkpoint)
			} else {
				fmt.Fprintf(os.Stderr, "# %s interrupted: %d/%d cells done (no -checkpoint: a rerun starts over)\n",
					cmd, len(rows), total)
			}
		}
		return err
	}
	return emit(rows)
}
