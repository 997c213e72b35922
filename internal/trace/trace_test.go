package trace

import (
	"strings"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/machine"
	"metaleak/internal/secmem"
	"metaleak/internal/sim"
)

func sys(t *testing.T) *machine.System {
	t.Helper()
	dp := machine.ConfigSCT()
	dp.SecurePages = 1 << 14
	dp.Seed = 9
	return machine.NewSystem(dp)
}

func TestRecorderCapturesAccesses(t *testing.T) {
	s := sys(t)
	r := New(128)
	detach := r.Attach(s.System)
	p := s.AllocPage(0)
	s.Read(0, p.Block(0))
	s.Read(0, p.Block(0))
	s.Flush(0, p.Block(0))
	s.Read(0, p.Block(0))
	detach()
	s.Read(0, p.Block(1)) // after detach: unrecorded

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events recorded", len(evs))
	}
	if evs[0].Path != secmem.PathTreeMiss || evs[1].Path != secmem.PathCacheHit || evs[2].Path != secmem.PathCounterHit {
		t.Fatalf("paths %v %v %v", evs[0].Path, evs[1].Path, evs[2].Path)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq || evs[i].Now < evs[i-1].Now {
			t.Fatal("events out of order")
		}
	}
}

func TestRecorderRingDropsOldest(t *testing.T) {
	s := sys(t)
	r := New(4)
	r.Attach(s.System)
	p := s.AllocPage(0)
	for i := 0; i < 10; i++ {
		s.Read(0, p.Block(i))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d", len(evs))
	}
	if r.Total() != 10 {
		t.Fatalf("total %d", r.Total())
	}
	// The retained events are the most recent four, in order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatal("ring not contiguous")
		}
	}
}

func TestRecorderFilter(t *testing.T) {
	s := sys(t)
	r := New(64)
	r.Filter = func(ev sim.TraceEvent) bool { return ev.Write }
	r.Attach(s.System)
	p := s.AllocPage(0)
	s.Read(0, p.Block(0))
	s.Write(0, p.Block(1), [64]byte{1})
	if len(r.Events()) != 1 || !r.Events()[0].Write {
		t.Fatalf("filter failed: %v", r.Events())
	}
}

// TestRingWraparoundOrdering feeds more events than the ring holds and
// checks Events() returns the survivors oldest-first — the ordering the
// replay/checkpoint flow depends on — with the ring's start index
// mid-buffer (10 events into a 4-slot ring leaves start at 2).
func TestRingWraparoundOrdering(t *testing.T) {
	r := New(4)
	hook := r.Hook()
	for i := 0; i < 10; i++ {
		if r.Len() != min(i, 4) {
			t.Fatalf("after %d events Len is %d", i, r.Len())
		}
		hook(sim.TraceEvent{Seq: uint64(i), Now: arch.Cycles(100 * i)})
	}
	evs := r.Events()
	if len(evs) != 4 || r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("ring holds %d (Len %d) of %d", len(evs), r.Len(), r.Total())
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first after overwrite)", i, ev.Seq, want)
		}
	}
}

// TestZeroValueUnmarshalSelfSizes checks the encoding.BinaryUnmarshaler
// path: a zero-value Recorder (capacity 0, never passed through New)
// sizes itself to hold the whole decoded trace, preserves ordering, and
// behaves as a live ring afterwards.
func TestZeroValueUnmarshalSelfSizes(t *testing.T) {
	events := make([]sim.TraceEvent, 5)
	for i := range events {
		events[i] = sim.TraceEvent{Seq: uint64(i + 1), Now: arch.Cycles(10 * i), Core: i % 2}
	}
	var rec Recorder
	if err := rec.UnmarshalBinary(EncodeEvents(events)); err != nil {
		t.Fatal(err)
	}
	got := rec.Events()
	if len(got) != len(events) {
		t.Fatalf("self-sized recorder holds %d of %d events", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
	// The self-sized capacity is the decoded length: one more event
	// wraps the ring and drops the oldest, oldest-first order intact.
	rec.Hook()(sim.TraceEvent{Seq: 99})
	got = rec.Events()
	if len(got) != len(events) || got[0].Seq != 2 || got[len(got)-1].Seq != 99 {
		t.Fatalf("post-unmarshal ring misbehaves: %+v", got)
	}

	// An empty trace self-sizes to a usable (capacity 1) recorder.
	var empty Recorder
	if err := empty.UnmarshalBinary(EncodeEvents(nil)); err != nil {
		t.Fatal(err)
	}
	if len(empty.Events()) != 0 {
		t.Fatalf("empty trace decoded to %d events", len(empty.Events()))
	}
	empty.Hook()(sim.TraceEvent{Seq: 1})
	if len(empty.Events()) != 1 {
		t.Fatal("recorder unusable after empty unmarshal")
	}
}

// TestWraparoundMarshalRoundTrip: a wrapped ring marshals its retained
// events oldest-first, and a zero-value recorder round-trips them.
func TestWraparoundMarshalRoundTrip(t *testing.T) {
	r := New(3)
	hook := r.Hook()
	for i := 0; i < 8; i++ {
		hook(sim.TraceEvent{Seq: uint64(i), Block: arch.BlockID(i * 7)})
	}
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Recorder
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	want := r.Events()
	got := back.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip lost events: %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestCSVAndSummary(t *testing.T) {
	s := sys(t)
	r := New(64)
	r.Attach(s.System)
	p := s.AllocPage(0)
	s.Read(0, p.Block(0))
	s.Read(0, p.Block(0))
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "seq,") {
		t.Fatalf("csv:\n%s", sb.String())
	}
	sum := r.Summary()
	if !strings.Contains(sum, "path 1") || !strings.Contains(sum, "path 4") {
		t.Fatalf("summary:\n%s", sum)
	}
}
