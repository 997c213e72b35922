package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with stdout redirected to a pipe and returns the output.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan struct{})
	var out []byte
	go func() {
		defer close(done)
		out, _ = io.ReadAll(r)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	<-done
	return string(out), runErr
}

func TestListCommand(t *testing.T) {
	out, err := capture(t, func() error { return run(context.Background(), []string{"list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig6", "fig18", "defiso", "ablnoise"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %s:\n%s", id, out)
		}
	}
}

func TestRunTable1(t *testing.T) {
	out, err := capture(t, func() error { return run(context.Background(), []string{"run", "table1"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SCT") || !strings.Contains(out, "SGX") {
		t.Fatalf("table1 output:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	out, err := capture(t, func() error { return run(context.Background(), []string{"run", "-json", "table1"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"ID": "table1"`) {
		t.Fatalf("json output:\n%s", out)
	}
}

// TestInterleavedFlags pins the CLI contract the CI smoke test relies
// on: flags may follow positional arguments (`run fig6 -par 4 -json`).
func TestInterleavedFlags(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"run", "table1", "-json", "-par", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"ID": "table1"`) {
		t.Fatalf("interleaved-flag output:\n%s", out)
	}
}

// TestParallelMatchesSequential asserts the -par flag never changes the
// bytes the CLI emits — only how fast they are produced.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := capture(t, func() error {
		return run(context.Background(), []string{"run", "-json", "-par", "1", "ablminor"})
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := capture(t, func() error {
		return run(context.Background(), []string{"run", "ablminor", "-json", "-par", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("-par 4 output differs from -par 1:\n--- par 1 ---\n%s--- par 4 ---\n%s", seq, par)
	}
}

func TestErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"run", "nosuch"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run(ctx, []string{"run"}); err == nil {
		t.Fatal("missing ids accepted")
	}
	if err := run(ctx, []string{"bogus"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run(ctx, []string{"trace", "nosuch"}); err == nil {
		t.Fatal("unknown trace victim accepted")
	}
	if err := run(ctx, []string{"trace"}); err == nil {
		t.Fatal("missing trace victim accepted")
	}
	if err := run(ctx, []string{"trace", "replay"}); err == nil {
		t.Fatal("missing replay file accepted")
	}
	if err := run(ctx, []string{"sweep", "-configs", ""}); err == nil {
		t.Fatal("empty sweep axis accepted")
	}
	if err := run(ctx, []string{"sweep", "-minor", "x"}); err == nil {
		t.Fatal("malformed sweep axis accepted")
	}
}

func TestTraceCommand(t *testing.T) {
	out, err := capture(t, func() error { return run(context.Background(), []string{"trace", "rsa"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "events recorded") {
		t.Fatalf("trace output:\n%s", out)
	}
}

// TestTraceBinaryRoundTrip dumps a binary trace with -bin and replays
// it; the replayed per-path summary must match the live one.
func TestTraceBinaryRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "rsa.mlt1")
	live, err := capture(t, func() error {
		return run(context.Background(), []string{"trace", "rsa", "-bin", file})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(live, "wrote ") {
		t.Fatalf("no binary dump confirmation:\n%s", live)
	}
	replayed, err := capture(t, func() error {
		return run(context.Background(), []string{"trace", "replay", file, "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The live summary (minus the dump confirmation line) must reappear.
	summary := live[:strings.Index(live, "wrote ")]
	if !strings.HasPrefix(replayed, summary) {
		t.Fatalf("replay summary diverges:\n--- live ---\n%s--- replay ---\n%s", summary, replayed)
	}
	if !strings.Contains(replayed, "seq,cycle,core,block") {
		t.Fatalf("replay -csv missing CSV header:\n%s", replayed)
	}
}

// TestSweepSetMatchesAxisFlag pins the acceptance contract: an
// axis-backed field override is remapped onto the axis, so
// `-set MinorBits=6` emits byte-identical output to `-minor 6`.
func TestSweepSetMatchesAxisFlag(t *testing.T) {
	base := []string{"sweep", "-configs", "sct", "-seeds", "1", "-bits", "20"}
	viaAxis, err := capture(t, func() error {
		return run(context.Background(), append(append([]string{}, base...), "-minor", "6"))
	})
	if err != nil {
		t.Fatal(err)
	}
	viaSet, err := capture(t, func() error {
		return run(context.Background(), append(append([]string{}, base...), "-set", "MinorBits=6"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if viaAxis != viaSet {
		t.Fatalf("-set MinorBits=6 differs from -minor 6:\n--- minor ---\n%s--- set ---\n%s", viaAxis, viaSet)
	}
	if !strings.Contains(viaSet, "sct,6,") {
		t.Fatalf("override not reflected in the rows:\n%s", viaSet)
	}
}

// TestSweepSetErrors covers the -set failure modes: conflicts with an
// explicit axis flag, the reserved Seed field, unknown fields, and
// malformed overrides.
func TestSweepSetErrors(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"sweep", "-minor", "6", "-set", "MinorBits=7"},
		{"sweep", "-meta", "64", "-set", "MetaKB=128"},
		{"sweep", "-noise", "100", "-set", "NoiseInterval=200"},
		{"sweep", "-set", "Seed=4"},
		{"sweep", "-set", "NoSuchField=1", "-seeds", "1", "-bits", "20"},
		{"sweep", "-set", "broken"},
		{"sweep", "-json", "-long"},
	} {
		if err := run(ctx, args); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestSweepRejectsSilentAxisValues: -minor 0 used to run the 7-bit
// default machine labeled as width 0; it must be rejected.
func TestSweepRejectsSilentAxisValues(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"sweep", "-minor", "0"}); err == nil {
		t.Fatal("sweep -minor 0 accepted")
	}
	if err := run(ctx, []string{"sweep", "-meta", "0"}); err == nil {
		t.Fatal("sweep -meta 0 accepted")
	}
	// Non-positive sizes used to run the default grid (-bits 0 and -5
	// were byte-identical to -bits 120, -seeds 0 ran one rep).
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"sweep", "-seeds", "0"}, "-seeds 0"},
		{[]string{"sweep", "-seeds", "-2"}, "-seeds -2"},
		{[]string{"sweep", "-bits", "0"}, "-bits 0"},
		{[]string{"sweep", "-bits", "-5"}, "-bits -5"},
	} {
		if err := run(ctx, tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want a refusal naming %q", tc.args, err, tc.want)
		}
	}
}

// TestHuntRejectsSilentSizes: hunt's sizes must be positive — zero or a
// negative value used to run the default grid under the flag's name
// (-programs 0 ran 4 programs).
func TestHuntRejectsSilentSizes(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"hunt", "-programs", "0", "-pairs", "1"}, "-programs 0"},
		{[]string{"hunt", "-programs", "-1"}, "-programs -1"},
		{[]string{"hunt", "-pairs", "-3"}, "-pairs -3"},
		{[]string{"hunt", "-pairs", "0"}, "-pairs 0"},
		{[]string{"hunt", "-ops", "0"}, "-ops 0"},
		{[]string{"hunt", "-secret-len", "-1"}, "-secret-len -1"},
		{[]string{"hunt", "-secret-len", "0"}, "-secret-len 0"},
	} {
		if err := run(ctx, tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want a refusal naming %q", tc.args, err, tc.want)
		}
	}
}

// TestSweepSGXMinorNA: the sgx design point ignores the minor width, so
// a sgx × minor grid collapses to one row per point, labeled na.
func TestSweepSGXMinorNA(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{
			"sweep", "-configs", "sgx", "-minor", "6,7", "-seeds", "1", "-bits", "20"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 collapsed row, got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "sgx,na,") {
		t.Fatalf("sgx row not marked na:\n%s", out)
	}
}

// TestSweepLongFormat checks -long: one (cell, metric, value) row per
// measurement.
func TestSweepLongFormat(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{
			"sweep", "-configs", "sct", "-seeds", "1", "-bits", "20", "-long"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "config,minor_bits,meta_kb,noise,rep,seed,metric,value" {
		t.Fatalf("long header:\n%s", out)
	}
	if len(lines) != 4 {
		t.Fatalf("want header + 3 metric rows, got %d lines:\n%s", len(lines), out)
	}
	for i, metric := range []string{"covert_accuracy", "cycles_per_bit", "monitor_accuracy"} {
		if !strings.Contains(lines[i+1], ","+metric+",") {
			t.Fatalf("line %d missing metric %s:\n%s", i+1, metric, out)
		}
	}
}

// TestSweepCheckpointResume drives the CLI's durability path: a
// checkpointed run, a resume from a truncated checkpoint (the exact
// file state a kill mid-grid leaves behind, thanks to the atomic
// per-cell rewrites), and a fingerprint mismatch.
func TestSweepCheckpointResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp.jsonl")
	args := []string{"sweep", "-configs", "sct", "-minor", "6,7", "-seeds", "2", "-bits", "20"}
	withCp := append(append([]string{}, args...), "-checkpoint", cp)

	full, err := capture(t, func() error { return run(context.Background(), args) })
	if err != nil {
		t.Fatal(err)
	}
	checkpointed, err := capture(t, func() error { return run(context.Background(), withCp) })
	if err != nil {
		t.Fatal(err)
	}
	if checkpointed != full {
		t.Fatalf("checkpointed output differs from plain run:\n--- plain ---\n%s--- checkpointed ---\n%s", full, checkpointed)
	}

	// Truncate the checkpoint to header + 2 completed cells — the state
	// after an interruption — and resume at two worker counts.
	data, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint too short to truncate:\n%s", data)
	}
	for _, par := range []string{"1", "4"} {
		if err := os.WriteFile(cp, []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		resumed, err := capture(t, func() error {
			return run(context.Background(), append(append([]string{}, withCp...), "-par", par))
		})
		if err != nil {
			t.Fatal(err)
		}
		if resumed != full {
			t.Fatalf("-par %s resume differs from uninterrupted run:\n--- full ---\n%s--- resumed ---\n%s", par, full, resumed)
		}
	}

	// A different seed is a different sweep: the checkpoint must refuse.
	err = run(context.Background(), append(append([]string{}, withCp...), "-seed", "99"))
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched checkpoint accepted: %v", err)
	}
}

// TestReplayBinReEmits: `trace replay FILE -bin OUT` re-emits the
// normalized trace instead of silently ignoring -bin.
func TestReplayBinReEmits(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.mlt1")
	reemit := filepath.Join(dir, "reemit.mlt1")
	if _, err := capture(t, func() error {
		return run(context.Background(), []string{"trace", "rsa", "-bin", orig})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"trace", "replay", orig, "-bin", reemit})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote ") {
		t.Fatalf("no re-emit confirmation:\n%s", out)
	}
	a, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(reemit)
	if err != nil {
		t.Fatal(err)
	}
	// The original was already normalized (oldest-first), so the
	// re-emitted encoding round-trips byte-identically.
	if string(a) != string(b) {
		t.Fatalf("re-emitted trace differs: %d vs %d bytes", len(a), len(b))
	}
}

// TestSweepCommand runs a tiny grid and checks the CSV shape and that a
// broken cell reports in its row instead of aborting the sweep.
func TestSweepCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{
			"sweep", "-configs", "sct,bogus", "-seeds", "1", "-bits", "20", "-par", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 cells, got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "config,minor_bits") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	if !strings.Contains(lines[2], "unknown config") {
		t.Fatalf("broken cell did not report in-row:\n%s", out)
	}
	jsonOut, err := capture(t, func() error {
		return run(context.Background(), []string{
			"sweep", "-configs", "sct", "-seeds", "2", "-bits", "20", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonOut, `"Rows"`) || !strings.Contains(jsonOut, `"Points"`) {
		t.Fatalf("sweep -json missing rows/points:\n%s", jsonOut)
	}
}
