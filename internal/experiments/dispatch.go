package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"metaleak/internal/dispatch"
	"metaleak/internal/faults"
	"metaleak/internal/runner"
)

// This file is the sweep's face of the generic coordinator/worker
// protocol of internal/dispatch, which the grid engine (grid.go) binds
// for every kind: the dispatch options, SweepDispatch with its result
// cache, and the in-process fleets the chaos driver and tests use. The
// contract is the same one the in-process runner honors: distribution
// is pure scheduling. A cell's row is a function of the axes and the
// cell index — which worker process ran it, in what steal order, and
// after how many revoked leases never appears in the output — so
// SweepDispatch's merged rows are byte-identical to SweepOpts' for any
// worker count, steal schedule, or mid-run worker death.

// DispatchOptions configures the coordinator side of a distributed
// sweep, on top of the usual SweepOptions.
type DispatchOptions struct {
	// LeaseTimeout is how long a worker may stay silent before its
	// leases revoke; <= 0 selects the dispatch default (10s).
	LeaseTimeout time.Duration
	// HarnessSpec is shipped to workers inside the job (see
	// SweepJob.HarnessSpec).
	HarnessSpec string
	// Token is the shared-secret auth for the worker listener; workers
	// not presenting it are refused (dispatch.Options.Token).
	Token string
	// Revive is the per-cell budget of lease revocations absorbed
	// without consuming attempts — the supervised-fleet mode
	// (dispatch.Options.Revive). 0 keeps the historic accounting.
	Revive int
	// RetryBackoff paces re-leases of failed or revoked cells
	// (dispatch.Options.RetryBackoff). Nil re-leases immediately.
	RetryBackoff func(attempt int) time.Duration
	// Cache, when non-nil, is the content-addressed result cache:
	// pending cells already in it are served without computing (logged
	// per cell through opts.Log), and every freshly settled clean row is
	// added. The key excludes the grid index, so overlapping grids share
	// cells. Cache and OnRow hold sweep rows; HuntDispatch refuses both.
	Cache *ResultCache
	// OnRow, when non-nil, observes every row of the final output as it
	// becomes known: rows settled before dispatch (checkpoint- or
	// cache-served, cached=true) in grid order up front, then each
	// live-computed row (cached=false) in completion order.
	OnRow func(row SweepRow, cached bool)
}

// SweepDispatch runs the grid distributed: it accepts workers on ln,
// deals pending cells via work-stealing leases, re-leases cells from
// dead workers (each revocation consuming one attempt of the cell's
// 1+Retries budget, exactly like a failed in-process attempt), streams
// settled rows into the checkpoint, and returns rows in grid order —
// byte-identical to SweepOpts with the same axes and policy. Of opts,
// Workers and Backoff are ignored (concurrency is however many workers
// attach; there is no inter-lease pause) and Faults only drives the
// checkpoint tamper hook — worker-side faults travel via
// dopts.HarnessSpec.
func SweepDispatch(ctx context.Context, axes SweepAxes, opts SweepOptions, dopts DispatchOptions, ln net.Listener) ([]SweepRow, error) {
	g, err := newSweepGrid(axes)
	if err != nil {
		ln.Close()
		return nil, err
	}
	h := dispatchHooks[SweepCell, SweepRow]{onRow: dopts.OnRow}
	if dopts.Cache != nil {
		// Content-addressed cache: serve pending cells some earlier sweep
		// (any grid, any client) already computed.
		a := g.axes.(SweepAxes)
		h.lookup = func(c SweepCell) (SweepRow, bool) {
			key := CellFingerprint(c, a.Bits, a.Set)
			row, ok := dopts.Cache.Get(key)
			if !ok {
				return row, false
			}
			row.SweepCell = c // re-stamp the grid index; the key covers every other field
			if opts.Log != nil {
				opts.Log("sweep: cell %d served from cache (%.12s…)", c.Index, key)
			}
			return row, true
		}
		h.store = func(row SweepRow) {
			dopts.Cache.Put(CellFingerprint(row.SweepCell, a.Bits, a.Set), row)
		}
	}
	return g.dispatch(ctx, opts, dopts, ln, h)
}

// runLocalDispatch is SweepDispatch on an in-process local fleet of n
// workers sharing the fault harness h (onLocalFleet) — the distributed
// path the chaos driver and tests use. Subprocess workers (`metaleak
// worker`) go through NewJobSession instead.
func runLocalDispatch(ctx context.Context, axes SweepAxes, opts SweepOptions, dopts DispatchOptions, n int, h *faults.Harness) ([]SweepRow, error) {
	return onLocalFleet(ctx, n, h, func(ln net.Listener) ([]SweepRow, error) {
		return SweepDispatch(ctx, axes, opts, dopts, ln)
	})
}

// runSupervisedDispatch is runLocalDispatch with self-healing: the n
// in-process workers run under a dispatch.Supervisor, so a worker that
// dies mid-grid (a flap plan's drop, a panic) is respawned with
// deterministic backoff and redials the coordinator with DialRetry.
// Paired with dopts.Revive on the coordinator it is the in-process
// model of `metaleak serve`'s fleet: a flapping run converges to the
// clean rows with zero quarantined cells.
func runSupervisedDispatch(ctx context.Context, axes SweepAxes, opts SweepOptions, dopts DispatchOptions, n int, h *faults.Harness) ([]SweepRow, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	sup := &dispatch.Supervisor{
		Workers: n,
		Backoff: runner.ExpBackoff(time.Millisecond),
		Log:     opts.Log,
		Start: func(ctx context.Context, slot, attempt int) error {
			w := &dispatch.Worker{
				ID:        fmt.Sprintf("sup-%d-%d", slot, attempt),
				Heartbeat: 50 * time.Millisecond,
				Token:     dopts.Token,
				Init: func(spec json.RawMessage) (dispatch.Session, error) {
					return newJobSession(spec, h)
				},
			}
			conn, err := dispatch.DialRetry(ctx, addr, 5, runner.ExpBackoff(5*time.Millisecond))
			if err != nil {
				return err
			}
			return w.Run(ctx, conn)
		},
	}
	supDone := make(chan error, 1)
	go func() { supDone <- sup.Run(fctx) }()
	rows, err := SweepDispatch(ctx, axes, opts, dopts, ln)
	fcancel() // release slots mid-respawn; drained slots already exited
	if serr := <-supDone; serr != nil && err == nil {
		err = serr
	}
	return rows, err
}
