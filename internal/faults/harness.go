package faults

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// DefaultStall is how long an injected stall blocks before giving up.
// It is deliberately far above any sensible per-trial deadline, so a
// stalled trial is always reported by the runner's timeout rather than
// by the stall expiring on its own — but it does expire, so a sweep run
// without deadlines still terminates.
const DefaultStall = 10 * time.Second

// ErrInjected marks a harness-injected trial failure (err and expired
// stall kinds). Callers can errors.Is against it to distinguish planned
// chaos from organic failures.
var ErrInjected = errors.New("faults: injected failure")

// Harness applies the plan's harness-level entries: it wraps trials so
// the planned attempts of the planned cells panic, stall, or error, and
// tears the checkpoint file at the planned append. Safe for concurrent
// use — trials run on the runner's worker pool.
type Harness struct {
	stall      time.Duration
	truncAfter int

	mu       sync.Mutex
	entries  []HarnessEntry
	attempts map[int]int
	crashed  bool

	// Disconnect entries keep their own counter map: a disconnect is
	// consulted by the dispatch worker before a leased cell runs, not by
	// WrapTrial, and the two must not share attempt counts (a dropped
	// lease never reaches the trial).
	disconnects []HarnessEntry
	dropSeen    map[int]int
}

// NewHarness builds the harness applying the plan's harness-level
// entries, or nil when the plan has none.
func (p *Plan) NewHarness() *Harness {
	if !p.HasHarness() {
		return nil
	}
	h := &Harness{stall: DefaultStall, attempts: make(map[int]int), dropSeen: make(map[int]int)}
	for _, he := range p.Harness {
		switch he.Kind {
		case HarnessTrunc:
			if h.truncAfter == 0 || he.Cell < h.truncAfter {
				h.truncAfter = he.Cell
			}
		case HarnessDisconnect, HarnessFlap:
			// Identical at the worker (drop the connection); flap differs
			// only in what the surrounding run promises — a supervised
			// fleet that respawns and reattaches.
			h.disconnects = append(h.disconnects, he)
		default:
			h.entries = append(h.entries, he)
		}
	}
	return h
}

// SetStall overrides how long injected stalls block (tests shorten it).
//
//metalint:allow deadcode test hook for TestHarnessStallExpires and TestSweepStallTimeout
func (h *Harness) SetStall(d time.Duration) { h.stall = d }

// WrapTrial wraps a trial so the planned leading attempts for the cell
// fail the planned way. Unplanned cells and attempts past the planned
// count run the real trial untouched.
func (h *Harness) WrapTrial(cell int, run func() (any, error)) func() (any, error) {
	if h == nil {
		return run
	}
	return func() (any, error) {
		h.mu.Lock()
		h.attempts[cell]++
		attempt := h.attempts[cell]
		var hit *HarnessEntry
		for i := range h.entries {
			e := &h.entries[i]
			if e.Cell == cell && attempt <= e.Fails {
				hit = e
				break
			}
		}
		h.mu.Unlock()
		if hit == nil {
			return run()
		}
		switch hit.Kind {
		case HarnessPanic:
			panic(fmt.Sprintf("faults: injected panic (cell %d attempt %d)", cell, attempt))
		case HarnessStall:
			// Block well past any per-trial deadline; the runner's timeout
			// is what should report this trial, the expiry below only
			// bounds runs configured without one.
			time.Sleep(h.stall) //metalint:allow wallclock injected stall must consume real time for the runner deadline to fire
			return nil, fmt.Errorf("%w: stall expired after %v (cell %d attempt %d)", ErrInjected, h.stall, cell, attempt)
		default: // HarnessErr
			return nil, fmt.Errorf("%w: injected error (cell %d attempt %d)", ErrInjected, cell, attempt)
		}
	}
}

// Disconnect is the dispatch worker's fault hook: it reports whether
// the worker should drop its coordinator connection instead of running
// the cell, consuming one planned drop per call. With a shared
// in-process harness the planned drops for a cell fire on its first
// Fails lease offers wherever they land, exactly once each; with
// per-process harnesses (subprocess workers) each worker counts its own
// offers, so a cell re-leased to a fresh worker can drop again — either
// way the coordinator's retry budget bounds the chaos.
func (h *Harness) Disconnect(cell int) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, he := range h.disconnects {
		if he.Cell != cell {
			continue
		}
		h.dropSeen[cell]++
		return h.dropSeen[cell] <= he.Fails
	}
	return false
}

// AfterAppend is the checkpoint tamper hook: the checkpoint calls it
// after its n-th successful append (n is 1-based) with the file path.
// At the planned append it tears a few bytes off the file's tail —
// leaving a torn trailing line, exactly what a crash mid-append leaves
// behind — and returns true, telling the checkpoint to simulate the
// writer's death by silently dropping all further persistence.
func (h *Harness) AfterAppend(path string, n int) (crashed bool) {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.crashed {
		return true
	}
	if h.truncAfter == 0 || n != h.truncAfter {
		return false
	}
	if st, err := os.Stat(path); err == nil && st.Size() > 9 {
		_ = os.Truncate(path, st.Size()-9)
	}
	h.crashed = true
	return true
}
