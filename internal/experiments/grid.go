package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"metaleak/internal/dispatch"
	"metaleak/internal/faults"
	"metaleak/internal/machine"
	"metaleak/internal/runner"
)

// The grid engine is the one execution stack under both `metaleak
// sweep` and `metaleak hunt`. A kind supplies only its grid — cells, how
// to run one, and how a failed cell reads as a row — and the engine
// supplies everything else once: checkpoint resume, the in-process pool
// under the retry/deadline/quarantine policy, the dispatch coordinator,
// and the worker session. Its contract is the kinds' contract: a row is
// a pure function of the axes and the cell index, so every -par width,
// worker fleet, steal schedule and resume yields byte-identical rows.

// gridCell is what the engine reads of a cell: its grid position.
type gridCell interface {
	comparable
	cellIndex() int
}

// gridRow is what the engine reads of a row: the cell it belongs to and
// its error ("" for a measurement).
type gridRow[C gridCell] interface {
	rowCell() C
	rowErr() string
}

// grid is one expanded design-point grid as the engine sees it.
type grid[C gridCell, R gridRow[C]] struct {
	kind        string // "sweep" or "hunt": error prefixes and the job's Kind
	format      string // checkpoint file format
	covers      string // the axes the fingerprint covers, for the mismatch error
	fingerprint string
	axes        any // the normalized axes, shipped to workers in the job
	cells       []C
	runCell     func(C) (R, error)
	// failed builds a failed cell's row; quarantined rows carry the
	// attempt budget they consumed.
	failed func(c C, err string, attempts int, quarantined bool) R
}

// parseSet parses a grid's "Field=value" overrides and vets them
// against a scratch design point up front, so a field typo fails the
// grid once instead of failing every cell.
func parseSet(kind string, set []string) ([]machine.FieldOverride, error) {
	ovs, err := machine.ParseOverrides(set)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", kind, err)
	}
	scratch := machine.ConfigSCT()
	if err := machine.ApplyOverrides(&scratch, ovs); err != nil {
		return nil, fmt.Errorf("%s: %w", kind, err)
	}
	return ovs, nil
}

// gridCheckpoint is the durable record of a grid in progress: completed
// rows keyed by cell index, appended to the log as they settle. The
// header carries the grid's fingerprint, so a checkpoint written by any
// other grid is refused at open instead of merged.
type gridCheckpoint[C gridCell, R gridRow[C]] struct {
	*appendLog
	mu   sync.Mutex
	rows map[int]R
}

// openCheckpoint opens (or starts) g's checkpoint at path. Rows must be
// well-formed and belong to the grid, or the open fails; the torn tail
// is the one salvaged exception (see appendLog).
func openCheckpoint[C gridCell, R gridRow[C]](path string, g *grid[C, R]) (*gridCheckpoint[C, R], error) {
	cp := &gridCheckpoint[C, R]{rows: map[int]R{}}
	hdr := checkpointHeader{Format: g.format, Fingerprint: g.fingerprint, Cells: len(g.cells)}
	log, err := openAppendLog(path, "checkpoint", hdr, func(file string) error {
		return fmt.Errorf("checkpoint %s: fingerprint %.12s… does not match this %s's %.12s… — "+
			"it was written by different axes (%s); "+
			"rerun with the original arguments or remove the file", path, file, g.kind, g.fingerprint, g.covers)
	}, func(line []byte) error {
		var row R
		if err := json.Unmarshal(line, &row); err != nil {
			return err
		}
		c := row.rowCell()
		i := c.cellIndex()
		if i < 0 || i >= len(g.cells) {
			return fmt.Errorf("cell index %d outside the %d-cell grid", i, len(g.cells))
		}
		if c != g.cells[i] {
			return fmt.Errorf("cell %d does not match the grid (file %+v, grid %+v)", i, c, g.cells[i])
		}
		cp.rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	cp.appendLog = log
	return cp, nil
}

// SetTamperer installs the fault-injection hook: after every successful
// append it receives the file path and the 1-based append count, and a
// true return simulates the writing process dying — the file is left
// exactly as the tamperer arranged it and every later append is
// silently dropped, which is what death looks like to the file.
func (c *gridCheckpoint[C, R]) SetTamperer(fn func(path string, appendN int) bool) {
	c.setTamper(fn)
}

// Completed returns the checkpointed rows that finished without error,
// keyed by cell index. Failed rows are deliberately excluded: resume
// re-runs them — a deterministic failure reproduces the identical row,
// and a transient one (a since-fixed config, a freed resource) gets its
// retry.
func (c *gridCheckpoint[C, R]) Completed() map[int]R {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]R, len(c.rows))
	for i, r := range c.rows {
		if r.rowErr() == "" {
			out[i] = r
		}
	}
	return out
}

// Append records a settled row and appends it to the file. Safe for
// concurrent use; after the first persistence failure further appends
// are dropped and Err reports the failure.
func (c *gridCheckpoint[C, R]) Append(row R) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.appendRecord(row) {
		c.rows[row.rowCell().cellIndex()] = row
	}
}

// resume opens the checkpoint opts name (nil without one), installing
// the fault plan's tamper hook and logging a salvaged torn tail, and
// splits the grid into done — completed rows on file — and pending,
// the grid indices still to run, ascending. The caller closes cp.
func (g *grid[C, R]) resume(opts SweepOptions) (cp *gridCheckpoint[C, R], done map[int]R, pending []int, err error) {
	done = map[int]R{}
	if opts.Checkpoint != "" {
		if cp, err = openCheckpoint(opts.Checkpoint, g); err != nil {
			return nil, nil, nil, err
		}
		if opts.Faults != nil {
			cp.SetTamperer(opts.Faults.AfterAppend)
		}
		if d := cp.Discarded(); d != "" && opts.Log != nil {
			opts.Log("checkpoint %s: discarded torn trailing line (%d bytes, crash mid-append); its cell will re-run", opts.Checkpoint, len(d))
		}
		done = cp.Completed()
	}
	for i := range g.cells {
		if _, ok := done[i]; !ok {
			pending = append(pending, i)
		}
	}
	return cp, done, pending, nil
}

// runPool runs the grid on the in-process pool under the full execution
// policy: bounded per-cell deadlines, bounded retries with backoff, cell
// quarantine, checkpoint durability, and (under test) injected harness
// faults. Policy decides whether a cell's row is a measurement or a
// quarantine report, never what the measurement is.
func (g *grid[C, R]) runPool(ctx context.Context, opts SweepOptions) ([]R, error) {
	cp, done, pending, err := g.resume(opts)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		defer cp.Close()
	}
	pol := runner.Policy{
		Workers: opts.Workers,
		Timeout: opts.Timeout,
		Retries: opts.Retries,
		Backoff: opts.Backoff,
	}
	trials := make([]runner.Trial, len(pending))
	for ti, i := range pending {
		c := g.cells[i]
		// Harness faults target grid cell indices, not trial slots: the
		// plan must hit the same cell whether or not a resume skipped
		// earlier cells.
		trials[ti] = opts.Faults.WrapTrial(c.cellIndex(), func() (any, error) {
			return g.runCell(c)
		})
	}
	var onDone func(int, any, error)
	if cp != nil {
		onDone = func(ti int, res any, err error) {
			if row, ok := g.settled(g.cells[pending[ti]], res, err, pol.Retries); ok {
				cp.Append(row)
			}
		}
	}
	parts, errs := runner.RunAllPolicy(ctx, trials, pol, onDone)
	// collect asks for the pending cells in grid order, which is trial
	// order.
	ti := 0
	return g.collect(ctx, cp, done, func(i int) (R, bool) {
		row, ok := g.settled(g.cells[i], parts[ti], errs[ti], pol.Retries)
		ti++
		return row, ok
	}, nil)
}

// dispatchHooks are the coordinator path's optional row hooks; sweep
// fills them from DispatchOptions' result cache and OnRow, and a kind
// that leaves them empty refuses those options.
type dispatchHooks[C gridCell, R gridRow[C]] struct {
	// lookup serves a pending cell without computing it.
	lookup func(C) (R, bool)
	// store observes each freshly computed row.
	store func(R)
	// onRow observes every output row as it becomes known: rows settled
	// before dispatch (cached=true) in grid order up front, then each
	// computed row in completion order.
	onRow func(row R, cached bool)
}

// dispatch runs the grid distributed: it accepts workers on ln, deals
// pending cells via work-stealing leases, re-leases cells from dead
// workers (each revocation consuming one attempt of the cell's
// 1+Retries budget, exactly like a failed in-process attempt), streams
// settled rows into the checkpoint, and returns rows in grid order —
// byte-identical to runPool with the same axes and policy. Of opts,
// Workers and Backoff are ignored (concurrency is however many workers
// attach; there is no inter-lease pause) and Faults only drives the
// checkpoint tamper hook — worker-side faults travel via
// dopts.HarnessSpec.
func (g *grid[C, R]) dispatch(ctx context.Context, opts SweepOptions, dopts DispatchOptions, ln net.Listener, h dispatchHooks[C, R]) ([]R, error) {
	if (dopts.Cache != nil && h.lookup == nil) || (dopts.OnRow != nil && h.onRow == nil) {
		ln.Close()
		return nil, fmt.Errorf("%s: DispatchOptions.Cache and OnRow hold sweep rows; a %s dispatch takes neither", g.kind, g.kind)
	}
	cp, done, pending, err := g.resume(opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if cp != nil {
		defer cp.Close()
	}

	// Served rows join the checkpoint, so a later resume of this grid no
	// longer needs whatever served them.
	if h.lookup != nil {
		kept := pending[:0]
		for _, i := range pending {
			row, ok := h.lookup(g.cells[i])
			if !ok {
				kept = append(kept, i)
				continue
			}
			done[i] = row
			if cp != nil {
				cp.Append(row)
			}
		}
		pending = kept
	}
	if h.onRow != nil {
		for i := range g.cells {
			if row, ok := done[i]; ok {
				h.onRow(row, true)
			}
		}
	}

	retries := opts.Retries
	var settled map[int]dispatch.Settled
	var runErr error
	if len(pending) == 0 {
		// Fully satisfied without computing: skip the coordinator
		// entirely — a resubmitted spec completes even with zero workers
		// attached.
		ln.Close()
	} else {
		spec, err := json.Marshal(gridJob[any]{
			Kind:        g.kind,
			Axes:        g.axes,
			Fingerprint: g.fingerprint,
			Timeout:     opts.Timeout,
			HarnessSpec: dopts.HarnessSpec,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		co := dispatch.NewCoordinator(spec, pending, dispatch.Options{
			LeaseTimeout: dopts.LeaseTimeout,
			MaxLeases:    1 + retries,
			Token:        dopts.Token,
			Revive:       dopts.Revive,
			RetryBackoff: dopts.RetryBackoff,
			Log:          opts.Log,
			OnSettled: func(cell int, s dispatch.Settled) {
				if cp == nil && h.store == nil && h.onRow == nil {
					return
				}
				row, ok := g.dispatched(g.cells[cell], s, retries)
				if !ok {
					return
				}
				if cp != nil {
					cp.Append(row)
				}
				if h.store != nil {
					h.store(row)
				}
				if h.onRow != nil {
					h.onRow(row, false)
				}
			},
		})
		settled, runErr = co.Run(ctx, ln)
	}
	return g.collect(ctx, cp, done, func(i int) (R, bool) {
		s, ok := settled[i]
		if !ok {
			return *new(R), false
		}
		return g.dispatched(g.cells[i], s, retries)
	}, runErr)
}

// collect assembles the grid-order rows: done's rows where present, the
// pending cells' from outcome. A cell without an outcome (cancelled
// before it ran) is left out and marks the run interrupted — Ctrl-C near
// the end of a long grid reports the finished work instead of
// discarding it. A persistence failure outranks runErr, which outranks
// the interruption.
func (g *grid[C, R]) collect(ctx context.Context, cp *gridCheckpoint[C, R], done map[int]R, outcome func(i int) (R, bool), runErr error) ([]R, error) {
	rows := make([]R, 0, len(g.cells))
	interrupted := false
	for i := range g.cells {
		if row, ok := done[i]; ok {
			rows = append(rows, row)
			continue
		}
		row, ok := outcome(i)
		if !ok {
			interrupted = true
			continue
		}
		rows = append(rows, row)
	}
	if cp != nil {
		if err := cp.Err(); err != nil {
			return rows, err
		}
	}
	if runErr != nil {
		return rows, runErr
	}
	if interrupted {
		return rows, ctx.Err()
	}
	return rows, nil
}

// failure builds a failed cell's row. Under a retry policy the cell is
// quarantined and carries its attempt count; recovered cells (failed
// attempts followed by a success) stay indistinguishable from clean
// ones — the retry is execution machinery, not measurement.
func (g *grid[C, R]) failure(c C, err string, attempts, retries int) R {
	if retries > 0 {
		return g.failed(c, err, attempts, true)
	}
	return g.failed(c, err, 0, false)
}

// settled converts one in-process trial outcome into a row. Cells
// skipped by cancellation report ok=false: they produced no result and
// must not be recorded as failures.
func (g *grid[C, R]) settled(c C, res any, err error, retries int) (R, bool) {
	var te *runner.TrialError
	switch {
	case err == nil:
		return res.(R), true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return *new(R), false
	case errors.As(err, &te):
		// Strip the runner's "trial N:" prefix: trial indices depend on
		// how many cells a resume skipped, and the row must not.
		return g.failure(c, te.Err.Error(), te.Attempts, retries), true
	}
	return g.failed(c, err.Error(), 0, false), true
}

// dispatched converts one settled dispatch outcome into a row,
// mirroring settled byte for byte: a failed cell's Err joins every
// attempt's error with newlines (the same rendering errors.Join gives
// the in-process pool), and Attempts/Quarantined only appear under a
// retry policy.
func (g *grid[C, R]) dispatched(c C, s dispatch.Settled, retries int) (R, bool) {
	if s.Err == "" {
		var row R
		if err := json.Unmarshal(s.Payload, &row); err != nil {
			return g.failure(c, fmt.Sprintf("undecodable result payload: %v", err), s.Attempts, retries), true
		}
		return row, true
	}
	if strings.Contains(s.Err, "context canceled") && len(s.Errs) == 1 {
		// A worker caught the cancellation before the coordinator did:
		// not a measurement, not a failure — the cell simply didn't run.
		return *new(R), false
	}
	return g.failure(c, s.Err, s.Attempts, retries), true
}

// gridJob is the opaque job spec a coordinator ships to its workers:
// everything a worker needs to expand the identical grid and run any
// cell of it.
type gridJob[A any] struct {
	// Kind routes the job to its engine (NewJobSession): "sweep" or
	// "hunt". The coordinator always sets it; empty is accepted as sweep
	// for specs written before hunt jobs existed.
	Kind string `json:",omitempty"`
	// Axes is the normalized grid (including -set overrides, and hence
	// any machine-level fault spec riding them).
	Axes A
	// Fingerprint is the coordinator's Axes.Fingerprint(); a worker
	// whose own expansion fingerprints differently is running skewed
	// code and refuses the job rather than contributing wrong rows.
	Fingerprint string
	// Timeout is the per-attempt deadline each worker applies locally;
	// 0 disables stall detection.
	Timeout time.Duration
	// HarnessSpec carries the plan's harness-level fault entries
	// (re-rendered by faults.Plan.HarnessSpec) so worker-side faults —
	// disconnect above all — fire in the process holding the lease.
	HarnessSpec string
}

// SweepJob is a sweep coordinator's job spec.
type SweepJob = gridJob[SweepAxes]

// HuntJob is a hunt coordinator's job spec.
type HuntJob = gridJob[HuntAxes]

// NewJobSession routes a worker-side job payload to the engine that
// wrote it: "hunt" to the differential fuzzer, "" or "sweep" to the
// sweep. It is the Init hook `metaleak worker` uses, so one worker
// binary serves any coordinator.
func NewJobSession(spec json.RawMessage) (dispatch.Session, error) {
	return newJobSession(spec, nil)
}

// NewSweepSession initializes a worker-side dispatch session from a
// SweepJob payload, building the session's fault harness from the
// job's harness spec (per-process attempt counting).
func NewSweepSession(spec json.RawMessage) (dispatch.Session, error) {
	return newSession(spec, "sweep", newSweepGrid, nil)
}

// newJobSession is NewJobSession with an optional shared fault harness:
// h, when non-nil, replaces the job's own harness spec — in-process
// workers share one harness so planned faults count attempts globally
// and fire deterministically, the shape the chaos invariants assert.
func newJobSession(spec json.RawMessage, h *faults.Harness) (dispatch.Session, error) {
	var k struct{ Kind string }
	if err := json.Unmarshal(spec, &k); err != nil {
		return dispatch.Session{}, fmt.Errorf("job: %w", err)
	}
	switch k.Kind {
	case "", "sweep":
		return newSession(spec, "sweep", newSweepGrid, h)
	case "hunt":
		return newSession(spec, "hunt", newHuntGrid, h)
	}
	return dispatch.Session{}, fmt.Errorf("job: unknown kind %q (sweep or hunt)", k.Kind)
}

// newSession decodes a kind's job, expands its grid, refuses a grid
// whose fingerprint differs from the coordinator's (version skew), and
// returns the session running leased cells.
func newSession[A any, C gridCell, R gridRow[C]](spec json.RawMessage, kind string, build func(A) (*grid[C, R], error), h *faults.Harness) (dispatch.Session, error) {
	var job gridJob[A]
	if err := json.Unmarshal(spec, &job); err != nil {
		return dispatch.Session{}, fmt.Errorf("%s job: %w", kind, err)
	}
	if h == nil && job.HarnessSpec != "" {
		plan, err := faults.Parse(job.HarnessSpec)
		if err != nil {
			return dispatch.Session{}, fmt.Errorf("%s job: %w", kind, err)
		}
		h = plan.NewHarness()
	}
	g, err := build(job.Axes)
	if err != nil {
		return dispatch.Session{}, err
	}
	if g.fingerprint != job.Fingerprint {
		return dispatch.Session{}, fmt.Errorf(
			"%s job: grid fingerprint mismatch (coordinator %.12s…, worker %.12s…): worker binary expands a different grid — version skew",
			kind, job.Fingerprint, g.fingerprint)
	}
	run := func(ctx context.Context, cell int) (json.RawMessage, error) {
		if cell < 0 || cell >= len(g.cells) {
			return nil, fmt.Errorf("leased cell %d outside grid of %d", cell, len(g.cells))
		}
		c := g.cells[cell]
		trial := h.WrapTrial(c.cellIndex(), func() (any, error) {
			return g.runCell(c)
		})
		// One lease is one attempt: run it under the same single-attempt
		// deadline machinery the in-process pool uses, so stalls and
		// panics settle to the identical error strings. Retries are the
		// coordinator's job (lease budget), not the worker's.
		res, errs := runner.RunAllPolicy(ctx, []runner.Trial{trial},
			runner.Policy{Workers: 1, Timeout: job.Timeout}, nil)
		if err := errs[0]; err != nil {
			// Strip the runner's TrialError envelope so the attempt error
			// the coordinator records is the same string settled would put
			// in a single-process row ("trial N:" prefixes depend on pool
			// slot numbering and must not leak into results).
			var te *runner.TrialError
			if errors.As(err, &te) && te.Err != nil {
				err = te.Err
			}
			return nil, err
		}
		return json.Marshal(res[0].(R))
	}
	return dispatch.Session{Run: run, Drop: func(cell int) bool {
		if cell < 0 || cell >= len(g.cells) {
			return false
		}
		return h.Disconnect(g.cells[cell].cellIndex())
	}}, nil
}

// onLocalFleet runs one dispatch with n in-process worker goroutines
// attached over loopback TCP, all initializing through the same
// Kind-routing session the `metaleak worker` subprocess uses and all
// sharing the fault harness h, so planned worker faults (disconnect
// above all) count attempts globally and fire deterministically. A
// worker that dies stays dead; runSupervisedDispatch is the respawning
// fleet.
func onLocalFleet[R any](ctx context.Context, n int, h *faults.Harness, run func(net.Listener) ([]R, error)) ([]R, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &dispatch.Worker{
			ID:        fmt.Sprintf("local-%d", i),
			Heartbeat: 50 * time.Millisecond,
			Init: func(spec json.RawMessage) (dispatch.Session, error) {
				return newJobSession(spec, h)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dispatch.Dial(addr)
			if err != nil {
				return
			}
			w.Run(ctx, conn)
		}()
	}
	rows, err := run(ln)
	wg.Wait()
	return rows, err
}
