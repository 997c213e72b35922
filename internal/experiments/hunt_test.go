package experiments

import (
	"context"
	"encoding/json"
	"net"
	"path/filepath"
	"reflect"
	"testing"
)

func huntTestAxes() HuntAxes {
	return HuntAxes{
		Configs:   []string{"sct", "ht"},
		Programs:  2,
		Pairs:     2,
		Ops:       32,
		SecretLen: 8,
		Seed:      9,
	}
}

// TestHuntWorkerCountInvariant is the hunt's core execution contract:
// verdict rows are a pure function of the axes, byte-identical for any
// -par worker count.
func TestHuntWorkerCountInvariant(t *testing.T) {
	axes := huntTestAxes()
	base, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(axes.Cells()) {
		t.Fatalf("rows: %d, want %d", len(base), len(axes.Cells()))
	}
	diverged := 0
	for _, r := range base {
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", r.Index, r.Err)
		}
		if r.Diverged {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("no cell diverged — the fuzzer found nothing on leaky baselines")
	}
	for _, workers := range []int{2, 7} {
		rows, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, rows) {
			t.Fatalf("workers=%d rows differ from workers=1", workers)
		}
	}
}

// TestHuntCheckpointResume: an interrupted hunt resumes to the same
// bytes, and a checkpoint from different axes is refused.
func TestHuntCheckpointResume(t *testing.T) {
	axes := huntTestAxes()
	dir := t.TempDir()
	path := filepath.Join(dir, "hunt.ckpt")

	full, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// First run: record everything.
	rows1, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: 2, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, rows1) {
		t.Fatal("checkpointed run differs from plain run")
	}
	// Resume with everything complete: no cell re-runs, same bytes.
	rows2, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: 2, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, rows2) {
		t.Fatal("resumed run differs")
	}

	other := axes
	other.Seed++
	if _, err := openCheckpoint(path, other.normalized().asGrid(nil)); err == nil {
		t.Fatal("checkpoint from different axes accepted")
	}
	if _, err := OpenCheckpoint(path, DefaultSweepAxes()); err == nil {
		t.Fatal("hunt checkpoint accepted as a sweep checkpoint")
	}
}

// TestHuntDispatchByteIdentical: the distributed path returns the same
// bytes as the in-process pool for any worker fleet size, routed
// through the Kind-dispatching session initializer the worker binary
// uses.
func TestHuntDispatchByteIdentical(t *testing.T) {
	axes := huntTestAxes()
	want, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		rows, err := onLocalFleet(context.Background(), n, nil, func(ln net.Listener) ([]HuntRow, error) {
			return HuntDispatch(context.Background(), axes, SweepOptions{}, DispatchOptions{}, ln)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		if !reflect.DeepEqual(want, rows) {
			t.Fatalf("workers=%d dispatch rows differ from in-process", n)
		}
	}
}

// TestJobSessionRouting: NewJobSession accepts tagged hunt and sweep
// jobs plus legacy untagged sweep jobs, and refuses unknown kinds.
func TestJobSessionRouting(t *testing.T) {
	sweepSpec, err := json.Marshal(SweepJob{
		Kind: "sweep", Axes: DefaultSweepAxes().normalized(),
		Fingerprint: DefaultSweepAxes().Fingerprint(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJobSession(sweepSpec); err != nil {
		t.Fatalf("tagged sweep job: %v", err)
	}

	legacy, err := json.Marshal(SweepJob{
		Axes:        DefaultSweepAxes().normalized(),
		Fingerprint: DefaultSweepAxes().Fingerprint(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJobSession(legacy); err != nil {
		t.Fatalf("legacy untagged sweep job: %v", err)
	}

	ha := huntTestAxes()
	huntSpec, err := json.Marshal(HuntJob{Kind: "hunt", Axes: ha, Fingerprint: ha.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJobSession(huntSpec); err != nil {
		t.Fatalf("hunt job: %v", err)
	}

	if _, err := NewJobSession(json.RawMessage(`{"Kind":"wibble"}`)); err == nil {
		t.Fatal("unknown job kind accepted")
	}

	// Version skew: a worker expanding a different grid refuses the job.
	skew := ha
	skew.Programs++
	skewSpec, err := json.Marshal(HuntJob{Kind: "hunt", Axes: skew, Fingerprint: ha.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJobSession(skewSpec); err == nil {
		t.Fatal("fingerprint-skewed hunt job accepted")
	}
}

// TestHuntFingerprintCoversIdentity: every axis that changes what runs
// changes the fingerprint.
func TestHuntFingerprintCoversIdentity(t *testing.T) {
	base := huntTestAxes()
	fp := base.Fingerprint()
	mutations := map[string]HuntAxes{}
	m := base
	m.Configs = []string{"sct"}
	mutations["configs"] = m
	m = base
	m.Programs = 3
	mutations["programs"] = m
	m = base
	m.Pairs = 1
	mutations["pairs"] = m
	m = base
	m.Ops = 16
	mutations["ops"] = m
	m = base
	m.SecretLen = 4
	mutations["secretlen"] = m
	m = base
	m.Seed++
	mutations["seed"] = m
	m = base
	m.Set = []string{"MinorBits=2"}
	mutations["set"] = m
	for name, ax := range mutations {
		if ax.Fingerprint() == fp {
			t.Errorf("%s mutation did not change the fingerprint", name)
		}
	}
}

// TestHuntNoiseTakesEffect: a NoiseInterval in Set reaches the cells'
// machines, and every noisy cell runs: the victim's frames sit past the
// noise process's pages in core 0's domain. Before the design points
// carried NoisePages, the interval alone ran no noise and the grid
// printed the noiseless rows. The bursts shift a cell's timing, but its
// verdict (channel, first divergence, counts) may still coincide with
// the quiet one, so the grid as a whole must change, not each row.
func TestHuntNoiseTakesEffect(t *testing.T) {
	axes := huntTestAxes()
	axes.Configs = []string{"sct"}
	quiet, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	axes.Set = []string{"NoiseInterval=2000"}
	noisy, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range noisy {
		if noisy[i].Err != "" {
			t.Errorf("cell %d: noisy run failed: %s", i, noisy[i].Err)
		}
	}
	if reflect.DeepEqual(quiet, noisy) {
		t.Error("NoiseInterval=2000 left every row unchanged")
	}
}

// TestHuntZeroFieldsFail: a zero or empty structural field set through
// Set fails its cell, with the error in the row, instead of running a
// defaulted machine.
func TestHuntZeroFieldsFail(t *testing.T) {
	for _, set := range []string{"Cores=0", "SecurePages=0", "MetaKB=0", "TreeArities=", "Counter=", "Tree="} {
		axes := huntTestAxes()
		axes.Configs = []string{"sct"}
		axes.Programs, axes.Pairs = 1, 1
		axes.Set = []string{set}
		rows, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", set, err)
		}
		if len(rows) != 1 || rows[0].Err == "" || rows[0].ObsA != 0 {
			t.Errorf("%s: row %+v, want a failed cell", set, rows)
		}
	}
}
