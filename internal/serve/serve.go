// Package serve implements the metaleak sweep service: a persistent
// HTTP/JSON front-end over the dispatch coordinator. Clients submit
// sweep specs, poll status, and stream rows as they settle; a
// supervised local worker fleet computes cells, and external
// `metaleak worker -connect` processes can attach to (and detach from)
// the active sweep's worker listener at any time.
//
// Two stores make the service self-healing rather than merely
// restartable:
//
//   - Per-sweep checkpoints (StateDir/sweeps/<fingerprint>.jsonl):
//     a sweep interrupted by a drain or a crash resumes from its
//     settled rows on resubmission.
//   - A content-addressed result cache (StateDir/cellcache.jsonl):
//     every clean cell row is stored under a key covering exactly what
//     determines it — so identical cells across *overlapping* sweeps
//     (more reps, another client's grid) compute once, ever.
//
// Robustness is layered per DESIGN.md §12: the supervisor respawns
// dead local workers with exponential backoff, respawned workers
// re-dial with bounded retry, the coordinator absorbs their revoked
// leases against a revive budget (no attempt-count scars), and
// re-leases of genuinely failed cells are paced by the same backoff
// curve. Distribution stays pure scheduling: a served sweep's rows are
// byte-identical to `metaleak sweep -par N` at the same seed.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"metaleak/internal/dispatch"
	"metaleak/internal/experiments"
	"metaleak/internal/runner"
)

// Sweep lifecycle states.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted" // drained mid-run; checkpointed, resumable
)

// Config parameterizes a Server.
type Config struct {
	// Token is the shared secret for both surfaces: HTTP clients present
	// it as `Authorization: Bearer <token>`, workers present it in the
	// dispatch hello. Empty disables auth on both (loopback use).
	Token string
	// StateDir holds the service's durable state: the cell cache at
	// cellcache.jsonl and per-sweep checkpoints under sweeps/.
	StateDir string
	// CacheMaxBytes caps the cell cache's footprint: past it, the
	// oldest entries are evicted (they recompute on next use) and the
	// file compacts. 0 leaves the cache unbounded.
	CacheMaxBytes int64
	// WorkerAddr is the TCP address the per-sweep worker listener binds;
	// empty selects loopback with an ephemeral port. The active sweep's
	// resolved address is published in /v1/status for external workers.
	WorkerAddr string
	// Workers is the supervised local fleet size; 0 runs no local
	// workers (external attach only).
	Workers int
	// SpawnWorker runs one worker process (or goroutine) connected to
	// addr until it exits; the supervisor calls it once per slot and
	// again, after backoff, each time it dies. Required when Workers > 0.
	SpawnWorker func(ctx context.Context, slot, attempt int, addr string) error
	// LeaseTimeout, Retries, Revive, TrialTimeout mirror the sweep
	// flags of the same names (dispatch lease silence bound, per-cell
	// retry budget, per-cell revocation absorption budget, per-attempt
	// deadline).
	LeaseTimeout time.Duration
	Retries      int
	Revive       int
	TrialTimeout time.Duration
	// Log, when non-nil, receives human-readable progress warnings.
	Log func(format string, args ...any)
}

// sweepRun is one submitted sweep's record.
type sweepRun struct {
	ID    string
	FP    string // grid fingerprint; the dedup and checkpoint key
	Axes  experiments.SweepAxes
	State string

	// live collects rows in arrival order (cache-served first, then
	// completion order) for streaming. Each row of the run's output
	// arrives exactly once (DispatchOptions.OnRow), so a finished run's
	// grid-ordered result set is live sorted by grid index (gridRows),
	// and the run keeps no second copy of its rows.
	live []experiments.SweepRow

	Cached      int // rows served without computing (checkpoint or cell cache)
	Computed    int // rows settled by workers this run
	Quarantined int
	Err         string
}

// Status is one sweep's client-facing progress document.
type Status struct {
	ID          string
	Fingerprint string
	State       string
	Cells       int
	Settled     int
	Cached      int
	Computed    int
	Quarantined int
	Err         string `json:",omitempty"`
}

// Server is the sweep service: an HTTP handler plus a run loop that
// executes queued sweeps one at a time over a supervised worker fleet.
type Server struct {
	cfg   Config
	cache *experiments.ResultCache

	mu         sync.Mutex
	cond       *sync.Cond // broadcast on any row, state change, or drain
	sweeps     map[string]*sweepRun
	order      []string             // submission order; /v1/status iterates this, never the map
	byFP       map[string]*sweepRun // queued/running dedup
	nextID     int
	workerAddr string // active sweep's listener address, "" when idle
	draining   bool

	work chan struct{} // wakes the run loop on submission
}

// New opens the service state under cfg.StateDir and returns a Server
// ready to Run. A torn trailing cache line (crash signature) is
// salvaged and logged, never fatal.
func New(cfg Config) (*Server, error) {
	if cfg.Workers > 0 && cfg.SpawnWorker == nil {
		return nil, errors.New("serve: Workers > 0 requires a SpawnWorker hook")
	}
	if cfg.StateDir == "" {
		return nil, errors.New("serve: StateDir is required")
	}
	if cfg.WorkerAddr == "" {
		cfg.WorkerAddr = "127.0.0.1:0"
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "sweeps"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	cache, err := experiments.OpenResultCacheCap(filepath.Join(cfg.StateDir, "cellcache.jsonl"), cfg.CacheMaxBytes)
	if err != nil {
		return nil, err
	}
	if n := cache.Evictions(); n > 0 && cfg.Log != nil {
		cfg.Log("serve: cell cache: over the %d-byte cap at open, evicted the %d oldest entries", cfg.CacheMaxBytes, n)
	}
	if torn := cache.Discarded(); torn != "" && cfg.Log != nil {
		cfg.Log("serve: cell cache: salvaged a torn trailing line (%d bytes discarded)", len(torn))
	}
	s := &Server{
		cfg:    cfg,
		cache:  cache,
		sweeps: map[string]*sweepRun{},
		byFP:   map[string]*sweepRun{},
		work:   make(chan struct{}, 1),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Run executes queued sweeps until ctx is cancelled, then drains: the
// active sweep's settled rows are already checkpointed (every row is
// appended as it settles), the run is marked interrupted, still-queued
// sweeps stay queued, and the cache is closed. It always returns nil
// after a clean drain.
func (s *Server) Run(ctx context.Context) error {
	// Flip the draining flag the instant the signal lands, not when the
	// active sweep finishes — submissions are refused immediately and
	// /healthz reports the drain.
	go func() {
		<-ctx.Done()
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	for {
		r := s.nextQueued()
		if r == nil {
			select {
			case <-ctx.Done():
				return s.cache.Close()
			case <-s.work:
				continue
			}
		}
		s.runOne(ctx, r)
		if ctx.Err() != nil {
			return s.cache.Close()
		}
	}
}

func (s *Server) nextQueued() *sweepRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		if r := s.sweeps[id]; r.State == StateQueued {
			return r
		}
	}
	return nil
}

// Submit enqueues a sweep spec, deduplicating against queued and
// running sweeps by grid fingerprint (the resubmitted spec joins the
// in-flight run instead of queueing a duplicate). It returns the run's
// status and whether an existing run was reused.
func (s *Server) Submit(axes experiments.SweepAxes) (Status, bool, error) {
	if err := axes.Validate(); err != nil {
		return Status{}, false, err
	}
	fp := axes.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Status{}, false, errors.New("serve: draining, not accepting sweeps")
	}
	if r, ok := s.byFP[fp]; ok {
		return s.statusLocked(r), true, nil
	}
	s.nextID++
	r := &sweepRun{
		ID:    fmt.Sprintf("s%d", s.nextID),
		FP:    fp,
		Axes:  axes,
		State: StateQueued,
	}
	s.sweeps[r.ID] = r
	s.order = append(s.order, r.ID)
	s.byFP[fp] = r
	select {
	case s.work <- struct{}{}:
	default:
	}
	return s.statusLocked(r), false, nil
}

// runOne executes one sweep: a fresh worker listener, a supervised
// local fleet dialing it, and SweepDispatch with the service's cache
// and checkpoint plumbed in.
func (s *Server) runOne(ctx context.Context, r *sweepRun) {
	s.mu.Lock()
	r.State = StateRunning
	s.mu.Unlock()
	s.cond.Broadcast()

	finish := func(state, errMsg string) {
		s.mu.Lock()
		s.workerAddr = ""
		r.State = state
		r.Err = errMsg
		delete(s.byFP, r.FP)
		s.mu.Unlock()
		s.cond.Broadcast()
	}

	ln, err := net.Listen("tcp", s.cfg.WorkerAddr)
	if err != nil {
		finish(StateFailed, err.Error())
		return
	}
	addr := ln.Addr().String()
	s.mu.Lock()
	s.workerAddr = addr
	s.mu.Unlock()

	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	var supDone chan error
	if s.cfg.Workers > 0 {
		sup := &dispatch.Supervisor{
			Workers: s.cfg.Workers,
			Backoff: runner.ExpBackoff(100 * time.Millisecond),
			Log:     s.cfg.Log,
			Start: func(ctx context.Context, slot, attempt int) error {
				return s.cfg.SpawnWorker(ctx, slot, attempt, addr)
			},
		}
		supDone = make(chan error, 1)
		go func() { supDone <- sup.Run(fctx) }()
	}

	opts := experiments.SweepOptions{
		Checkpoint: filepath.Join(s.cfg.StateDir, "sweeps", r.FP+".jsonl"),
		Timeout:    s.cfg.TrialTimeout,
		Retries:    s.cfg.Retries,
		Log:        s.cfg.Log,
	}
	dopts := experiments.DispatchOptions{
		LeaseTimeout: s.cfg.LeaseTimeout,
		Token:        s.cfg.Token,
		Revive:       s.cfg.Revive,
		RetryBackoff: runner.ExpBackoff(100 * time.Millisecond),
		Cache:        s.cache,
		OnRow: func(row experiments.SweepRow, cached bool) {
			s.mu.Lock()
			r.live = append(r.live, row)
			if cached {
				r.Cached++
			} else {
				r.Computed++
			}
			if row.Quarantined {
				r.Quarantined++
			}
			s.mu.Unlock()
			s.cond.Broadcast()
		},
	}
	rows, err := experiments.SweepDispatch(ctx, r.Axes, opts, dopts, ln)
	fcancel() // release worker slots mid-respawn; drained slots already exited
	if supDone != nil {
		if serr := <-supDone; serr != nil && err == nil {
			err = serr
		}
	}
	switch {
	case err == nil:
		finish(StateDone, "")
	case errors.Is(err, context.Canceled):
		finish(StateInterrupted,
			fmt.Sprintf("drained mid-run: %d of %d cells checkpointed; resubmit to resume", len(rows), len(r.Axes.Cells())))
	default:
		finish(StateFailed, err.Error())
	}
}

// statusLocked renders a run's Status; s.mu must be held.
func (s *Server) statusLocked(r *sweepRun) Status {
	return Status{
		ID:          r.ID,
		Fingerprint: r.FP,
		State:       r.State,
		Cells:       len(r.Axes.Cells()),
		Settled:     len(r.live),
		Cached:      r.Cached,
		Computed:    r.Computed,
		Quarantined: r.Quarantined,
		Err:         r.Err,
	}
}

// get looks a run up by ID.
func (s *Server) get(id string) (*sweepRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.sweeps[id]
	return r, ok
}

// gridRows returns a finished run's rows in grid order; s.mu must be
// held.
func (r *sweepRun) gridRows() []experiments.SweepRow {
	rows := slices.Clone(r.live)
	slices.SortFunc(rows, func(a, b experiments.SweepRow) int { return cmp.Compare(a.Index, b.Index) })
	return rows
}

// waitDone blocks until the run leaves queued/running or ctx ends,
// returning its terminal state.
func (s *Server) waitDone(ctx context.Context, r *sweepRun) (string, error) {
	// A cond has no context hook; bridge via a broadcast on ctx end.
	stop := context.AfterFunc(ctx, s.cond.Broadcast)
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for r.State == StateQueued || r.State == StateRunning {
		if ctx.Err() != nil {
			return r.State, ctx.Err()
		}
		s.cond.Wait()
	}
	return r.State, nil
}
