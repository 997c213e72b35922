package experiments

import (
	"context"
	"errors"
	"fmt"

	"metaleak/internal/faults"
	"metaleak/internal/runner"
)

// Spec declares one experiment as a bundle of independent trials plus a
// pure merge — the shape every figure of the paper actually has. The
// runner may execute trials in any order and with any parallelism;
// Merge always receives the partials in trial-index order, so the
// assembled Result is byte-identical for any worker count.
type Spec struct {
	// ID is the registry key ("fig6", "table1", ...).
	ID string
	// Trials are the independent units of work. Each builds its own
	// machine(s) from seeds derived deterministically from Options.Seed
	// and the trial's identity, and returns a partial result for Merge;
	// it must not share mutable state with any other trial of the spec.
	Trials []runner.Trial
	// Merge assembles the final Result from the trial partials,
	// index-aligned with Trials. It must be pure and order-independent:
	// no machine access, no RNG draws, no dependence on completion
	// order — only on the partials themselves.
	Merge func(parts []any) (*Result, error)
}

// Run executes the spec's trials with at most `workers` in flight
// (workers <= 0 selects GOMAXPROCS) and merges the partials. Output is
// identical for every worker count, including 1.
func (s *Spec) Run(ctx context.Context, workers int) (*Result, error) {
	return s.RunPolicy(ctx, runner.Policy{Workers: workers}, nil)
}

// RunPolicy is Run under a failure policy (per-trial deadlines, bounded
// retries) and, under test, injected harness faults wrapped around the
// trials by index. An experiment — unlike a sweep — has no per-cell
// failure rows to quarantine into: a trial that exhausts its attempts
// still fails the whole experiment, the policy only decides how hard it
// tried first.
func (s *Spec) RunPolicy(ctx context.Context, pol runner.Policy, h *faults.Harness) (*Result, error) {
	trials := make([]runner.Trial, len(s.Trials))
	for i, tr := range s.Trials {
		trials[i] = h.WrapTrial(i, tr)
	}
	parts, errs := runner.RunAllPolicy(ctx, trials, pol, nil)
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("%s: %w", s.ID, errors.Join(failed...))
	}
	return s.Merge(parts)
}

// single wraps a monolithic experiment body as a one-trial spec — the
// migration shape for experiments whose samples share machine history
// (e.g. path-4 latencies depend on what the previous group loaded) and
// therefore cannot be split without changing their results.
func single(id string, run func() (*Result, error)) *Spec {
	return &Spec{
		ID:     id,
		Trials: []runner.Trial{func() (any, error) { return run() }},
		Merge: func(parts []any) (*Result, error) {
			return parts[0].(*Result), nil
		},
	}
}

// Run builds and executes one registered experiment at the given trial
// parallelism.
func Run(ctx context.Context, id string, o Options, workers int) (*Result, error) {
	mk, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return mk(o).Run(ctx, workers)
}

// RunPolicy builds and executes one registered experiment under a
// failure policy and optional injected harness faults.
func RunPolicy(ctx context.Context, id string, o Options, pol runner.Policy, h *faults.Harness) (*Result, error) {
	mk, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return mk(o).RunPolicy(ctx, pol, h)
}
