package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"metaleak/internal/arch"
)

// logKind adapts one file kind built on the append log to the shared
// crash-signature test: open returns the file's log, how many records
// it loaded, and an append of the kind's i-th fixture record.
type logKind struct {
	name   string
	format string
	open   func(path string) (l *appendLog, loaded int, add func(i int), err error)
}

func logKinds() []logKind {
	sweep := tinyAxes().normalized()
	sweepCells := sweep.Cells()
	hunt := huntTestAxes()
	huntCells := hunt.Cells()
	return []logKind{
		{"sweep-checkpoint", checkpointFormat, func(path string) (*appendLog, int, func(int), error) {
			cp, err := OpenCheckpoint(path, sweep)
			if err != nil {
				return nil, 0, nil, err
			}
			return cp.appendLog, len(cp.Completed()), func(i int) {
				cp.Append(SweepRow{SweepCell: sweepCells[i], CovertAccuracy: 1})
			}, nil
		}},
		{"hunt-checkpoint", huntCheckpointFormat, func(path string) (*appendLog, int, func(int), error) {
			cp, err := openCheckpoint(path, hunt.normalized().asGrid(nil))
			if err != nil {
				return nil, 0, nil, err
			}
			return cp.appendLog, len(cp.Completed()), func(i int) {
				cp.Append(HuntRow{HuntCell: huntCells[i]})
			}, nil
		}},
		{"cell-cache", cellCacheFormat, func(path string) (*appendLog, int, func(int), error) {
			rc, err := OpenResultCache(path)
			if err != nil {
				return nil, 0, nil, err
			}
			return rc.appendLog, rc.Len(), func(i int) {
				row := sampleRow(i, i)
				rc.Put(CellFingerprint(row.SweepCell, 8, nil), row)
			}, nil
		}},
	}
}

// TestAppendLogCrashSignatures pins the one crash discipline every
// append-log file kind shares: a crash mid-append can only leave a torn
// tail, which is salvaged; everything else is either fresh or refused.
func TestAppendLogCrashSignatures(t *testing.T) {
	for _, k := range logKinds() {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			// A well-formed three-record file supplies the lines the cases
			// are cut from.
			good := filepath.Join(dir, "good.jsonl")
			l, _, add, err := k.open(good)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				add(i)
			}
			if err := l.Err(); err != nil {
				t.Fatal(err)
			}
			l.Close()
			lines := strings.SplitAfter(string(mustReadFile(t, good)), "\n")
			if len(lines) != 5 || lines[4] != "" {
				t.Fatalf("fixture file has %d lines, want header + 3 records:\n%s", len(lines)-1, strings.Join(lines, ""))
			}
			hdr, r0, r1, r2 := lines[0], lines[1], lines[2], lines[3]
			torn := r2[:len(r2)-9]

			for _, tc := range []struct {
				name      string
				content   *string // nil: no file at all
				loaded    int
				discarded string
				after     string // the file once opened
				wantErr   string // non-empty: the open must fail mentioning it
			}{
				{name: "missing"},
				{name: "empty", content: ptr("")},
				{name: "torn header", content: ptr(hdr[:10]), discarded: hdr[:10]},
				{name: "torn tail", content: ptr(hdr + r0 + r1 + torn), loaded: 2, discarded: torn, after: hdr + r0 + r1},
				{name: "blank lines", content: ptr(hdr + "\n" + r0 + "  \n" + r1), loaded: 2, after: hdr + "\n" + r0 + "  \n" + r1},
				{name: "wrong format", content: ptr(`{"Format":"something-else/v9"}` + "\n" + r0), wantErr: "not a " + k.format + " file"},
				{name: "malformed middle line", content: ptr(hdr + r0 + "not a record\n" + r1), wantErr: "line 3: "},
			} {
				path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".jsonl")
				if tc.content != nil {
					if err := os.WriteFile(path, []byte(*tc.content), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				l, loaded, _, err := k.open(path)
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Errorf("%s: open err = %v, want mention of %q", tc.name, err, tc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: open failed: %v", tc.name, err)
					continue
				}
				if loaded != tc.loaded || l.Discarded() != tc.discarded {
					t.Errorf("%s: loaded %d records, discarded %q; want %d and %q", tc.name, loaded, l.Discarded(), tc.loaded, tc.discarded)
				}
				after, err := os.ReadFile(path)
				if tc.content == nil {
					if !os.IsNotExist(err) {
						t.Errorf("%s: open created the file (%v)", tc.name, err)
					}
				} else if string(after) != tc.after {
					t.Errorf("%s: file after open = %q, want %q", tc.name, after, tc.after)
				}
				l.Close()
			}

			// The tamper hook's simulated death: the append it fires on
			// lands, every later one is dropped, and none is a failure.
			path := filepath.Join(dir, "tampered.jsonl")
			l, _, add, err = k.open(path)
			if err != nil {
				t.Fatal(err)
			}
			l.setTamper(func(_ string, n int) bool { return n == 2 })
			for i := 0; i < 3; i++ {
				add(i)
			}
			if err := l.Err(); err != nil {
				t.Errorf("simulated crash reported as a failure: %v", err)
			}
			l.Close()
			if got := string(mustReadFile(t, path)); got != hdr+r0+r1 {
				t.Errorf("appends after the tamper hook fired reached the file:\n%s", got)
			}
		})
	}
}

func ptr(s string) *string { return &s }

// TestLogFormatGolden opens files written by an earlier build — a sweep
// and a hunt checkpoint each cut off mid-append by harness:trunc, and a
// cell cache written by `metaleak serve` — so a format drift that stays
// self-consistent still fails: each must salvage and load exactly its
// complete records and resume to the rows of a fresh run.
func TestLogFormatGolden(t *testing.T) {
	ctx := context.Background()
	copyGolden := func(name string) string {
		t.Helper()
		data := mustReadFile(t, filepath.Join("testdata", name))
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// checkSalvage asserts the open cut exactly the torn tail off.
	checkSalvage := func(path, discarded string, golden []byte) {
		t.Helper()
		after := mustReadFile(t, path)
		if discarded == "" || !bytes.Equal(append(after, discarded...), golden) || !bytes.HasSuffix(after, []byte("\n")) {
			t.Errorf("%s: salvage discarded %q and left %q", path, discarded, after)
		}
	}

	t.Run("sweep-checkpoint", func(t *testing.T) {
		// metaleak sweep -configs sct -minor 6,7 -meta 64 -seeds 2 -bits 8 -seed 5
		//   -set FastCrypto=true -set SecurePages=16384 -par 1 -faults harness:trunc@3
		axes := SweepAxes{Configs: []string{"sct"}, MinorBits: []uint{6, 7}, MetaKB: []int{64},
			Noise: []arch.Cycles{0}, Seeds: 2, Seed: 5, Bits: 8,
			Set: []string{"FastCrypto=true", "SecurePages=16384"}}
		fresh, err := SweepOpts(ctx, axes, SweepOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		path := copyGolden("sweep-checkpoint-v1.jsonl")
		cp, err := OpenCheckpoint(path, axes)
		if err != nil {
			t.Fatal(err)
		}
		checkSalvage(path, cp.Discarded(), mustReadFile(t, filepath.Join("testdata", "sweep-checkpoint-v1.jsonl")))
		if got, want := cp.Completed(), map[int]SweepRow{0: fresh[0], 1: fresh[1]}; !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded rows %+v, want %+v", got, want)
		}
		cp.Close()
		resumed, err := SweepOpts(ctx, axes, SweepOptions{Workers: 2, Checkpoint: path})
		if err != nil {
			t.Fatal(err)
		}
		if err := rowsIdentical(fresh, resumed); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("hunt-checkpoint", func(t *testing.T) {
		// metaleak hunt -configs sct,ht -programs 2 -pairs 1 -ops 32 -seed 9
		//   -par 1 -faults harness:trunc@3
		axes := HuntAxes{Configs: []string{"sct", "ht"}, Programs: 2, Pairs: 1, Ops: 32, SecretLen: 8, Seed: 9}
		fresh, err := HuntOpts(ctx, axes, SweepOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		path := copyGolden("hunt-checkpoint-v1.jsonl")
		cp, err := openCheckpoint(path, axes.normalized().asGrid(nil))
		if err != nil {
			t.Fatal(err)
		}
		checkSalvage(path, cp.Discarded(), mustReadFile(t, filepath.Join("testdata", "hunt-checkpoint-v1.jsonl")))
		if got, want := cp.Completed(), map[int]HuntRow{0: fresh[0], 1: fresh[1]}; !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded rows %+v, want %+v", got, want)
		}
		cp.Close()
		resumed, err := HuntOpts(ctx, axes, SweepOptions{Workers: 2, Checkpoint: path})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, resumed) {
			t.Fatalf("resumed rows differ from a fresh run:\n got %+v\nwant %+v", resumed, fresh)
		}
	})

	t.Run("cell-cache", func(t *testing.T) {
		// POST /v1/sweeps to `metaleak serve -workers 1` with this spec.
		axes := SweepAxes{Configs: []string{"sct"}, MinorBits: []uint{7}, MetaKB: []int{64},
			Noise: []arch.Cycles{0}, Seeds: 3, Seed: 21, Bits: 8,
			Set: []string{"SecurePages=16384", "FastCrypto=true"}}
		fresh, err := SweepOpts(ctx, axes, SweepOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := OpenResultCache(copyGolden("cellcache-v1.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		if rc.Len() != len(fresh) || rc.Discarded() != "" {
			t.Fatalf("loaded %d entries (discarded %q), want %d", rc.Len(), rc.Discarded(), len(fresh))
		}
		for _, want := range fresh {
			got, ok := rc.Get(CellFingerprint(want.SweepCell, axes.Bits, axes.Set))
			want.Index = 0
			if !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("cached row = (%+v, %v), want %+v", got, ok, want)
			}
		}
		// With zero workers attached, the cache alone must serve the grid.
		served, err := runLocalDispatch(ctx, axes, SweepOptions{}, DispatchOptions{Cache: rc}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rowsIdentical(fresh, served); err != nil {
			t.Fatal(err)
		}
	})
}
