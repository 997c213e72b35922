package faults

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metaleak/internal/arch"
	"metaleak/internal/secmem"
)

func TestParseGrammar(t *testing.T) {
	p, err := Parse("machine:mac@40;machine:any@auto6/256; harness:panic@3x2 ;harness:trunc@2;harness:err@1")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Machine) != 2 || len(p.Harness) != 3 {
		t.Fatalf("parsed %d machine + %d harness entries, want 2+3", len(p.Machine), len(p.Harness))
	}
	if p.Machine[0].Class != secmem.InjectMAC || len(p.Machine[0].At) != 1 || p.Machine[0].At[0] != 40 {
		t.Errorf("machine[0] = %+v, want mac@40", p.Machine[0])
	}
	if !p.Machine[1].Any || p.Machine[1].Auto != 6 || p.Machine[1].Horizon != 256 {
		t.Errorf("machine[1] = %+v, want any auto6/256", p.Machine[1])
	}
	if p.Harness[0].Kind != HarnessPanic || p.Harness[0].Cell != 3 || p.Harness[0].Fails != 2 {
		t.Errorf("harness[0] = %+v, want panic cell 3 x2", p.Harness[0])
	}
	if p.Harness[1].Kind != HarnessTrunc || p.Harness[1].Cell != 2 {
		t.Errorf("harness[1] = %+v, want trunc@2", p.Harness[1])
	}
	if p.Harness[2].Fails != 1 {
		t.Errorf("harness err default fails = %d, want 1", p.Harness[2].Fails)
	}
	if got := p.MachineSpec(); got != "machine:mac@40;machine:any@auto6/256" {
		t.Errorf("MachineSpec() = %q", got)
	}
	if empty, err := Parse("  "); err != nil || empty.HasMachine() || empty.HasHarness() {
		t.Errorf("blank spec: %+v, %v", empty, err)
	}
}

// TestParseDisconnect: the disconnect kind parses like the other
// harness kinds, routes to the worker-side hook instead of WrapTrial,
// and re-renders through HarnessSpec so a distributed job can carry it.
func TestParseDisconnect(t *testing.T) {
	p, err := Parse("machine:mac@40;harness:disconnect@2x2;harness:err@5")
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasDisconnect() {
		t.Error("HasDisconnect() = false")
	}
	if p.Harness[0].Kind != HarnessDisconnect || p.Harness[0].Cell != 2 || p.Harness[0].Fails != 2 {
		t.Errorf("harness[0] = %+v, want disconnect cell 2 x2", p.Harness[0])
	}
	if got := p.HarnessSpec(); got != "harness:disconnect@2x2;harness:err@5" {
		t.Errorf("HarnessSpec() = %q", got)
	}
	if got := p.MachineSpec(); got != "machine:mac@40" {
		t.Errorf("MachineSpec() = %q", got)
	}
	if q := MustParse("harness:err@1"); q.HasDisconnect() {
		t.Error("err-only plan claims a disconnect")
	}
}

// TestParseFlap: the flap kind (disconnect-then-reconnect) parses,
// counts as a disconnect for the needs-distributed check, routes to the
// worker-side drop hook, and re-renders through HarnessSpec.
func TestParseFlap(t *testing.T) {
	p, err := Parse("harness:flap@1x2;harness:flap@4")
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasDisconnect() {
		t.Error("flap plan: HasDisconnect() = false")
	}
	if p.Harness[0].Kind != HarnessFlap || p.Harness[0].Cell != 1 || p.Harness[0].Fails != 2 {
		t.Errorf("harness[0] = %+v, want flap cell 1 x2", p.Harness[0])
	}
	if got := p.HarnessSpec(); got != "harness:flap@1x2;harness:flap@4" {
		t.Errorf("HarnessSpec() = %q", got)
	}
	h := p.NewHarness()
	if !h.Disconnect(1) || !h.Disconnect(1) || h.Disconnect(1) {
		t.Error("flap drops did not fire exactly twice for cell 1")
	}
	if !h.Disconnect(4) || h.Disconnect(4) {
		t.Error("flap drops did not fire exactly once for cell 4")
	}
	if h.Disconnect(0) {
		t.Error("unplanned cell dropped")
	}
}

// TestHarnessDisconnect: planned drops fire on the cell's first Fails
// offers and never touch WrapTrial's attempt counting.
func TestHarnessDisconnect(t *testing.T) {
	h := MustParse("harness:disconnect@3x2;harness:err@3").NewHarness()
	if h.Disconnect(1) {
		t.Error("unplanned cell dropped")
	}
	if !h.Disconnect(3) || !h.Disconnect(3) {
		t.Error("planned drops did not fire twice")
	}
	if h.Disconnect(3) {
		t.Error("drop fired past its budget")
	}
	// The err@3 entry still owns the trial-level attempt counter.
	if _, err := h.WrapTrial(3, func() (any, error) { return nil, nil })(); !errors.Is(err, ErrInjected) {
		t.Errorf("WrapTrial attempt after drops: err = %v, want injected", err)
	}
	var nilH *Harness
	if nilH.Disconnect(0) {
		t.Error("nil harness must be inert")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"machine:mac",             // no @where
		"nowhere:mac@1",           // unknown surface
		"machine:quantum@1",       // unknown class
		"machine:mac@0",           // ordinals are 1-based
		"machine:mac@auto0",       // zero count
		"machine:mac@auto3/0",     // zero horizon
		"harness:flake@1",         // unknown kind
		"harness:panic@-1",        // negative cell
		"harness:panic@1x0",       // zero attempt count
		"harness:trunc@0",         // trunc ordinal is 1-based
		"harness:trunc@2x3",       // trunc takes no attempt count
		"machine:mac@40;harness:", // trailing junk entry
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

func TestInjectorDeterministic(t *testing.T) {
	p := MustParse("machine:any@auto8/64;machine:minor@5")
	a := p.Injector(42)
	b := p.Injector(42)
	if a.Outstanding() != 9 || b.Outstanding() != 9 {
		t.Fatalf("planned %d/%d, want 9", a.Outstanding(), b.Outstanding())
	}
	blk := arch.PageID(1).Block(0)
	for seq := uint64(1); seq <= 64; seq++ {
		ca := a.Inject(seq, blk, false)
		cb := b.Inject(seq, blk, false)
		if len(ca) != len(cb) {
			t.Fatalf("seq %d: %v vs %v", seq, ca, cb)
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("seq %d: %v vs %v", seq, ca, cb)
			}
		}
	}
	if a.Outstanding() != 0 {
		t.Errorf("after full read drive, %d outstanding", a.Outstanding())
	}
	if c := p.Injector(43); c.Outstanding() != 9 {
		t.Errorf("different seed changed the planned count: %d", c.Outstanding())
	}
}

// TestInjectorDefersWriteOnlyClasses checks the read-deferral rule:
// ciphertext and MAC corruption planned at a write is held for the next
// read (a write would immediately overwrite it), while counter/node
// classes fire at the write itself.
func TestInjectorDefersWriteOnlyClasses(t *testing.T) {
	in := MustParse("machine:ciphertext@3;machine:minor@3").Injector(1)
	blk := arch.PageID(0).Block(0)
	if got := in.Inject(3, blk, true); len(got) != 1 || got[0] != secmem.InjectMinor {
		t.Fatalf("write at seq 3 applied %v, want [minor]", got)
	}
	if in.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1 (deferred ciphertext)", in.Outstanding())
	}
	if got := in.Inject(4, blk, true); len(got) != 0 {
		t.Fatalf("second write drained the deferral: %v", got)
	}
	if got := in.Inject(5, blk, false); len(got) != 1 || got[0] != secmem.InjectCiphertext {
		t.Fatalf("read applied %v, want deferred [ciphertext]", got)
	}
	if in.Outstanding() != 0 {
		t.Errorf("outstanding = %d after drain", in.Outstanding())
	}
}

func TestHarnessWrapTrial(t *testing.T) {
	h := MustParse("harness:err@2x2;harness:panic@5").NewHarness()
	ran := 0
	trial := h.WrapTrial(2, func() (any, error) { ran++; return "ok", nil })
	for attempt := 1; attempt <= 2; attempt++ {
		if _, err := trial(); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: err = %v, want injected", attempt, err)
		}
	}
	if res, err := trial(); err != nil || res != "ok" || ran != 1 {
		t.Fatalf("attempt 3: (%v, %v), ran %d", res, err, ran)
	}

	panicked := false
	func() {
		defer func() { panicked = recover() != nil }()
		h.WrapTrial(5, func() (any, error) { return nil, nil })()
	}()
	if !panicked {
		t.Error("planned panic did not fire")
	}

	// Unplanned cells pass through untouched.
	if res, err := h.WrapTrial(9, func() (any, error) { return 7, nil })(); err != nil || res != 7 {
		t.Errorf("unplanned cell: (%v, %v)", res, err)
	}
}

func TestHarnessStallExpires(t *testing.T) {
	h := MustParse("harness:stall@0").NewHarness()
	h.SetStall(5 * time.Millisecond)
	if _, err := h.WrapTrial(0, func() (any, error) { return nil, nil })(); !errors.Is(err, ErrInjected) {
		t.Fatalf("expired stall err = %v, want injected", err)
	}
}

func TestHarnessAfterAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.jsonl")
	content := strings.Repeat("x", 40) + "\n" + strings.Repeat("y", 40) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	h := MustParse("harness:trunc@2").NewHarness()
	if h.AfterAppend(path, 1) {
		t.Fatal("crashed at append 1, planned for 2")
	}
	if !h.AfterAppend(path, 2) {
		t.Fatal("did not crash at planned append")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(content)-9 {
		t.Errorf("file is %d bytes after tear, want %d", len(got), len(content)-9)
	}
	if !h.AfterAppend(path, 3) {
		t.Error("post-crash appends must stay crashed")
	}
	if len(mustRead(t, path)) != len(content)-9 {
		t.Error("post-crash AfterAppend re-tore the file")
	}

	var nilH *Harness
	if nilH.AfterAppend(path, 1) {
		t.Error("nil harness must be inert")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
