package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFingerprintCoversSweepIdentity(t *testing.T) {
	base := tinyAxes()
	fp := base.Fingerprint()
	if fp != base.Fingerprint() {
		t.Fatal("fingerprint is not stable")
	}
	perturb := []func(*SweepAxes){
		func(a *SweepAxes) { a.Seed++ },
		func(a *SweepAxes) { a.Bits++ },
		func(a *SweepAxes) { a.Seeds++ },
		func(a *SweepAxes) { a.MinorBits = []uint{5, 7} },
		func(a *SweepAxes) { a.Configs = []string{"ht"} },
		func(a *SweepAxes) { a.Set = []string{"FastCrypto=true"} },
	}
	for i, f := range perturb {
		a := tinyAxes()
		f(&a)
		if a.Fingerprint() == fp {
			t.Fatalf("perturbation %d does not change the fingerprint", i)
		}
	}
}

// TestResumeByteIdentical is the acceptance property: a sweep
// interrupted mid-grid and resumed from its checkpoint produces output
// identical to an uninterrupted run, for more than one worker count.
// The interrupted state is constructed exactly as a killed run leaves
// it: a checkpoint holding the first k completed rows.
func TestResumeByteIdentical(t *testing.T) {
	axes := tinyAxes()
	want, err := Sweep(context.Background(), axes, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, k := range []int{0, 1, len(want)} {
			path := filepath.Join(t.TempDir(), "cp.jsonl")
			cp, err := OpenCheckpoint(path, axes)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range want[:k] {
				cp.Append(row)
			}
			if err := cp.Err(); err != nil {
				t.Fatal(err)
			}
			got, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: workers, Checkpoint: path})
			if err != nil {
				t.Fatalf("workers=%d k=%d: %v", workers, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d k=%d: resumed rows differ:\n got %+v\nwant %+v", workers, k, got, want)
			}
			// The persisted file itself must round-trip: a second resume
			// runs nothing and still reproduces the grid.
			again, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: workers, Checkpoint: path})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Fatalf("workers=%d k=%d: second resume differs", workers, k)
			}
		}
	}
}

// TestResumeReRunsFailedCells: failed rows in a checkpoint are retried
// on resume; a deterministic failure reproduces the identical row.
func TestResumeReRunsFailedCells(t *testing.T) {
	axes := tinyAxes()
	axes.Configs = []string{"sct", "bogus"}
	axes.MinorBits = []uint{7}
	axes.Seeds = 1
	want, err := Sweep(context.Background(), axes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want[1].Err == "" {
		t.Fatal("fixture lost its failing cell")
	}
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(path, axes)
	if err != nil {
		t.Fatal(err)
	}
	cp.Append(want[1]) // only the failed row is checkpointed
	got, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 2, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume with a failed row differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointFingerprintMismatchFailsLoudly(t *testing.T) {
	axes := tinyAxes()
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if _, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 2, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	other := tinyAxes()
	other.Seed++
	_, err := SweepOpts(context.Background(), other, SweepOptions{Workers: 2, Checkpoint: path})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched checkpoint accepted: %v", err)
	}
}

func TestCheckpointRejectsCorruptFiles(t *testing.T) {
	axes := tinyAxes()
	dir := t.TempDir()
	for name, content := range map[string]string{
		"garbage.jsonl": "not json at all\n",
		// A complete (newline-terminated) body line that is not a row is
		// NOT a crash signature — crashes tear the tail, they do not
		// rewrite the middle — so it still fails loudly.
		"midline.jsonl": "", // filled in below with a valid header
	} {
		path := filepath.Join(dir, name)
		if name == "midline.jsonl" {
			good, err := os.ReadFile(writeCheckpointFixture(t, dir, axes))
			if err != nil {
				t.Fatal(err)
			}
			content = string(good) + "not a row\n"
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, axes); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}

	// A row whose cell does not belong to the grid is rejected even
	// under a matching header.
	path := filepath.Join(dir, "tampered.jsonl")
	cp, err := OpenCheckpoint(path, axes)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Sweep(context.Background(), axes, 2)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	row.Seed++ // no longer the grid's cell
	cp.Append(row)
	if _, err := OpenCheckpoint(path, axes); err == nil {
		t.Fatal("tampered cell accepted")
	}
}

// writeCheckpointFixture writes a checkpoint file containing only the
// valid header line for axes and returns its path.
func writeCheckpointFixture(t *testing.T, dir string, axes SweepAxes) string {
	t.Helper()
	axes = axes.normalized()
	hdr, err := json.Marshal(checkpointHeader{
		Format:      checkpointFormat,
		Fingerprint: axes.Fingerprint(),
		Cells:       len(axes.Cells()),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fixture.jsonl")
	if err := os.WriteFile(path, append(hdr, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckpointEmptyFileIsFresh: a zero-byte file is the signature of
// a crash between create and the header append — it begins an empty
// checkpoint rather than failing the resume.
func TestCheckpointEmptyFileIsFresh(t *testing.T) {
	axes := tinyAxes()
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path, axes)
	if err != nil {
		t.Fatalf("empty file rejected: %v", err)
	}
	if cp.Discarded() != "" || len(cp.Completed()) != 0 {
		t.Fatalf("empty file is not a fresh checkpoint: discarded=%q rows=%d",
			cp.Discarded(), len(cp.Completed()))
	}
}

// TestCheckpointSalvagesTornTrailingLine: a checkpoint whose final line
// was torn mid-append (the SIGKILL signature) salvages every complete
// row, reports the tear via Discarded, cuts it off the file, and the
// resumed sweep reproduces the uninterrupted output exactly.
func TestCheckpointSalvagesTornTrailingLine(t *testing.T) {
	axes := tinyAxes()
	want, err := Sweep(context.Background(), axes, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(path, axes)
	if err != nil {
		t.Fatal(err)
	}
	cp.Append(want[0])
	cp.Append(want[1])
	if err := cp.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	data := mustReadFile(t, path)
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	salvaged, err := OpenCheckpoint(path, axes)
	if err != nil {
		t.Fatalf("torn trailing line rejected: %v", err)
	}
	if salvaged.Discarded() == "" {
		t.Error("tear salvaged silently — Discarded is empty")
	}
	done := salvaged.Completed()
	if len(done) != 1 {
		t.Fatalf("salvaged %d rows, want 1", len(done))
	}
	if got, ok := done[want[0].Index]; !ok || !reflect.DeepEqual(got, want[0]) {
		t.Fatalf("salvaged row = %+v, want %+v", got, want[0])
	}
	if after := mustReadFile(t, path); !bytes.HasSuffix(after, []byte("\n")) {
		t.Error("open did not cut the torn line off the file")
	}
	if err := salvaged.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 2, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after salvage differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckpointTornHeaderStartsFresh: a file holding a single
// unterminated line is a crash before the header append completed —
// nothing is salvageable, so resume starts fresh and still converges.
func TestCheckpointTornHeaderStartsFresh(t *testing.T) {
	axes := tinyAxes()
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, []byte(`{"Format":"metaleak-swe`), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path, axes)
	if err != nil {
		t.Fatalf("torn header rejected: %v", err)
	}
	if cp.Discarded() == "" || len(cp.Completed()) != 0 {
		t.Fatalf("torn header: discarded=%q rows=%d", cp.Discarded(), len(cp.Completed()))
	}
	if got := mustReadFile(t, path); len(got) != 0 {
		t.Errorf("torn header left %d bytes, want 0", len(got))
	}
	want, err := Sweep(context.Background(), axes, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 2, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep after torn header differs:\n got %+v\nwant %+v", got, want)
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCancelledSweepReportsCompletedRows pins the satellite fix: a
// cancelled context no longer discards completed rows. With every cell
// but one checkpointed and the context already cancelled, the sweep
// returns the completed rows alongside the cancellation error.
func TestCancelledSweepReportsCompletedRows(t *testing.T) {
	axes := tinyAxes()
	want, err := Sweep(context.Background(), axes, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenCheckpoint(path, axes)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range want[:len(want)-1] {
		cp.Append(row)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := SweepOpts(ctx, axes, SweepOptions{Workers: 2, Checkpoint: path})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(rows, want[:len(want)-1]) {
		t.Fatalf("cancelled sweep dropped completed rows:\n got %+v\nwant %+v", rows, want[:len(want)-1])
	}

	// Without a checkpoint, a cancelled-before-start sweep reports no
	// rows but still distinguishes cancellation from cell failure.
	rows, err = Sweep(ctx, axes, 2)
	if !errors.Is(err, context.Canceled) || len(rows) != 0 {
		t.Fatalf("fresh cancelled sweep: rows=%d err=%v", len(rows), err)
	}
}
