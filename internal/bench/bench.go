// Package bench runs the repository's substrate microbenchmarks in-process
// and emits a machine-readable performance record (the committed
// BENCH_<pr>.json files). The record is what `make bench-gate` compares
// across commits: a >10% ns/op regression or any rise in allocs/op on any
// microbenchmark fails the gate, so hot-path performance is a tested
// property rather than folklore.
//
// The substrate benchmark bodies live here once; the root package's
// bench_test.go wraps them (BenchmarkSecureRead and friends). They
// measure host time of the simulator's hot loop, not simulated cycles,
// so they are explicitly outside the determinism contract. All timing goes through
// testing.Benchmark; this package never reads the host clock itself.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/core"
	"metaleak/internal/experiments"
	"metaleak/internal/machine"
)

// Schema identifies the record layout; bump on incompatible change.
const Schema = "metaleak-bench/v1"

// Measurement is one microbenchmark's result.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// SweepResult is the fixed-grid sweep throughput measurement.
type SweepResult struct {
	// Grid names the fixed sweep grid (axes and sizes) so records are
	// only comparable when the grid matches.
	Grid string `json:"grid"`
	// Cells is the number of grid cells per sweep run.
	Cells int `json:"cells"`
	// CellsPerSec is the measured end-to-end sweep throughput.
	CellsPerSec float64 `json:"cells_per_sec"`
}

// Baseline records a reference measurement set (e.g. the pre-PR numbers a
// speedup claim is made against).
type Baseline struct {
	// Ref names the commit or state the numbers were measured at.
	Ref        string                 `json:"ref"`
	Note       string                 `json:"note,omitempty"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

// Record is the full performance record serialized to BENCH_<pr>.json.
type Record struct {
	Schema     string                 `json:"schema"`
	GoVersion  string                 `json:"go_version"`
	GOOS       string                 `json:"goos"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
	Sweep      SweepResult            `json:"sweep"`
	// Baseline, when present, is the reference the record's headline
	// claim is measured against (not what the gate compares: the gate
	// compares two records' Benchmarks).
	Baseline *Baseline `json:"baseline,omitempty"`
}

// SeedBaseline returns the substrate measurements recorded at this PR's
// seed commit (pre-optimization), on the same host class the committed
// record was produced on. It is embedded in BENCH_8.json so the speedup
// claim and its reference travel together.
func SeedBaseline() *Baseline {
	return &Baseline{
		Ref:  "pre-PR-8 seed (4575fba)",
		Note: "Intel Xeon @ 2.10GHz, linux/amd64; bit-serial GHASH, per-access allocations",
		Benchmarks: map[string]Measurement{
			"SecureRead":        {NsPerOp: 2750, BytesPerOp: 80, AllocsPerOp: 2},
			"SecureWrite":       {NsPerOp: 16244, BytesPerOp: 178, AllocsPerOp: 4},
			"MEvictReloadRound": {NsPerOp: 618687, BytesPerOp: 13384, AllocsPerOp: 203},
			"CounterBump":       {NsPerOp: 48385, BytesPerOp: 10014, AllocsPerOp: 123},
		},
	}
}

// The substrate microbenchmark bodies. They are the only copy: the root
// package's BenchmarkSecureRead and friends call them, and Run measures
// them for the record.

// SecureRead measures one full secure-memory read (path 2).
func SecureRead(b *testing.B) {
	sys := machine.NewSystem(machine.ConfigSCT())
	p := sys.AllocPage(0)
	blk := p.Block(0)
	sys.Read(0, blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Flush(0, blk)
		sys.Read(0, blk)
	}
}

// SecureWrite measures one write-through (counter increment + encrypt +
// MAC).
func SecureWrite(b *testing.B) {
	sys := machine.NewSystem(machine.ConfigSCT())
	p := sys.AllocPage(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.WriteThrough(0, p.Block(i%64), [64]byte{byte(i)})
	}
}

// MEvictReloadRound measures one Monitor round (the Fig. 12 L0 interval
// in host time).
func MEvictReloadRound(b *testing.B) {
	sys := machine.NewSystem(machine.ConfigSCT())
	a := core.NewAttacker(sys.System, sys.Ctrl, 0, false)
	vic := sys.AllocPage(1)
	m, err := a.NewMonitor(vic, 0)
	if err != nil {
		b.Fatal(err)
	}
	m.Calibrate(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evict()
		m.Reload()
	}
}

// CounterBump measures one MetaLeak-C bump.
func CounterBump(b *testing.B) {
	dp := machine.ConfigSCT()
	dp.FastCrypto = true
	sys := machine.NewSystem(dp)
	a := core.NewAttacker(sys.System, sys.Ctrl, 0, false)
	cm, err := a.NewCounterMonitor(arch.PageID(1<<12), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Bump()
	}
}

// substrate names the microbenchmarks in the record.
var substrate = []struct {
	Name string
	Body func(b *testing.B)
}{
	{"SecureRead", SecureRead},
	{"SecureWrite", SecureWrite},
	{"MEvictReloadRound", MEvictReloadRound},
	{"CounterBump", CounterBump},
}

// sweepAxes is the fixed grid the throughput measurement runs: one design
// point family, two minor widths, two metadata sizes, one seed — small
// enough for CI, wide enough to exercise machine construction, the covert
// pipeline and result aggregation per cell.
func sweepAxes() experiments.SweepAxes {
	return experiments.SweepAxes{
		Configs:   []string{"sct"},
		MinorBits: []uint{6, 7},
		MetaKB:    []int{64, 256},
		Noise:     []arch.Cycles{0},
		Seeds:     1,
		Seed:      1,
		Bits:      40,
	}
}

// sweepGridName renders the fixed grid's identity for the record.
func sweepGridName(a experiments.SweepAxes) string {
	return fmt.Sprintf("configs=%v minor=%v metaKB=%v noise=%v seeds=%d bits=%d",
		a.Configs, a.MinorBits, a.MetaKB, a.Noise, a.Seeds, a.Bits)
}

// Run executes every microbenchmark plus the fixed-grid sweep and returns
// the assembled record (without a Baseline; callers attach one).
func Run() (Record, error) {
	rec := Record{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]Measurement{},
	}
	for _, bm := range substrate {
		res := testing.Benchmark(bm.Body)
		if res.N == 0 {
			return rec, fmt.Errorf("bench: %s did not run (benchmark body failed)", bm.Name)
		}
		rec.Benchmarks[bm.Name] = Measurement{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
	}
	axes := sweepAxes()
	cells := len(axes.Cells())
	var sweepErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Sweep(context.Background(), axes, 1); err != nil {
				sweepErr = err
				b.Fatal(err)
			}
		}
	})
	if sweepErr != nil {
		return rec, fmt.Errorf("bench: sweep: %w", sweepErr)
	}
	if res.N == 0 {
		return rec, fmt.Errorf("bench: sweep benchmark did not run")
	}
	nsPerSweep := float64(res.T.Nanoseconds()) / float64(res.N)
	rec.Sweep = SweepResult{
		Grid:        sweepGridName(axes),
		Cells:       cells,
		CellsPerSec: float64(cells) / (nsPerSweep / 1e9),
	}
	return rec, nil
}

// Regression describes one gate violation.
type Regression struct {
	Benchmark string
	Metric    string // "ns/op" or "allocs/op"
	Prev      float64
	Curr      float64
}

func (r Regression) String() string {
	s := fmt.Sprintf("%s: %.0f %s -> %.0f %s", r.Benchmark, r.Prev, r.Metric, r.Curr, r.Metric)
	if r.Metric == "ns/op" {
		s += fmt.Sprintf(" (%.1f%% slower)", (r.Curr/r.Prev-1)*100)
	}
	return s
}

// Gate compares the current record against a previously committed one and
// returns every microbenchmark whose ns/op regressed by more than tol
// (0.10 = 10%) or whose allocs/op rose at all: allocation counts do not
// depend on the host, so any rise is a change in the code. bytes/op is
// not compared, because it is amortised over the run and moves by a few
// bytes between builds of the same code. Benchmarks present only on one
// side are ignored: adding a new benchmark must not fail the gate
// retroactively, and a removed one has nothing to compare.
func Gate(prev, curr Record, tol float64) []Regression {
	names := make([]string, 0, len(curr.Benchmarks))
	for name := range curr.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Regression
	for _, name := range names {
		p, ok := prev.Benchmarks[name]
		if !ok {
			continue
		}
		c := curr.Benchmarks[name]
		if p.NsPerOp > 0 && c.NsPerOp > p.NsPerOp*(1+tol) {
			out = append(out, Regression{Benchmark: name, Metric: "ns/op", Prev: p.NsPerOp, Curr: c.NsPerOp})
		}
		if c.AllocsPerOp > p.AllocsPerOp {
			out = append(out, Regression{Benchmark: name, Metric: "allocs/op", Prev: float64(p.AllocsPerOp), Curr: float64(c.AllocsPerOp)})
		}
	}
	return out
}
