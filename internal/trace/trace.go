// Package trace records and renders memory-access traces from the
// simulator — the artifact a side-channel researcher actually inspects:
// which accesses took which metadata path, where the latency bands sit,
// and where overflows fired. Recorders attach to a system through
// sim.System.SetTraceHook and cost nothing when detached.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"metaleak/internal/secmem"
	"metaleak/internal/sim"
)

// Recorder keeps the most recent events in a ring buffer.
type Recorder struct {
	capacity int
	buf      []sim.TraceEvent
	start    int // index of the oldest event
	total    uint64
	// Filter, when non-nil, selects which events are kept.
	Filter func(sim.TraceEvent) bool
}

// New builds a recorder holding up to capacity events.
func New(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{capacity: capacity}
}

// Hook returns the function to install with SetTraceHook.
func (r *Recorder) Hook() func(sim.TraceEvent) {
	return func(ev sim.TraceEvent) {
		if r.Filter != nil && !r.Filter(ev) {
			return
		}
		r.total++
		if len(r.buf) < r.capacity {
			r.buf = append(r.buf, ev)
			return
		}
		r.buf[r.start] = ev
		r.start = (r.start + 1) % r.capacity
	}
}

// Attach installs the recorder on a system and returns a detach function.
func (r *Recorder) Attach(s *sim.System) func() {
	s.SetTraceHook(r.Hook())
	return func() { s.SetTraceHook(nil) }
}

// Total returns how many events matched (including ones the ring dropped).
func (r *Recorder) Total() uint64 { return r.total }

// Len returns how many events the ring retains, at most its capacity.
func (r *Recorder) Len() int { return len(r.buf) }

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []sim.TraceEvent {
	out := make([]sim.TraceEvent, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// WriteCSV dumps the retained events as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "seq,cycle,core,block,write,latency,path,tree_levels,overflow"); err != nil {
		return err
	}
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%#x,%t,%d,%d,%d,%t\n",
			ev.Seq, ev.Now, ev.Core, uint64(ev.Block), ev.Write,
			ev.Latency, ev.Path, ev.TreeLevels, ev.Overflow); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders per-path counts and latency means plus overflow totals.
func (r *Recorder) Summary() string {
	type agg struct {
		n   int
		sum uint64
	}
	paths := make(map[secmem.Path]*agg)
	overflows := 0
	for _, ev := range r.Events() {
		a := paths[ev.Path]
		if a == nil {
			a = &agg{}
			paths[ev.Path] = a
		}
		a.n++
		a.sum += uint64(ev.Latency)
		if ev.Overflow {
			overflows++
		}
	}
	keys := make([]int, 0, len(paths))
	for p := range paths {
		keys = append(keys, int(p))
	}
	sort.Ints(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d events recorded (%d total matched)\n", len(r.Events()), r.total)
	for _, k := range keys {
		a := paths[secmem.Path(k)]
		fmt.Fprintf(&sb, "  path %d: %6d accesses, mean %5.0f cycles\n",
			k, a.n, float64(a.sum)/float64(a.n))
	}
	fmt.Fprintf(&sb, "  overflow events: %d\n", overflows)
	return sb.String()
}
