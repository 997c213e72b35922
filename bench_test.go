package metaleak

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md §3 maps each to its experiment). Benchmarks print
// the regenerated rows once (the figure payload) and then time repeated
// runs; go test -bench=. -benchmem at the repo root reproduces the whole
// evaluation.

import (
	"context"
	"runtime"
	"testing"

	"metaleak/internal/bench"
	"metaleak/internal/experiments"
)

// benchOpts keeps benchmark iterations affordable while still exercising
// the full pipelines.
func benchOpts() experiments.Options {
	o := experiments.Default()
	o.Samples = 400
	o.Bits = 60
	o.Symbols = 12
	o.ImageSize = 24
	o.ExpBits = 64
	o.PrimeBits = 64
	o.Trials = 10
	return o
}

// runExperiment prints the result once, then re-runs per benchmark
// iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	if _, ok := experiments.Registry[id]; !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	ctx := context.Background()
	o := benchOpts()
	res, err := experiments.Run(ctx, id, o, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + res.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Seed = uint64(i + 1)
		if _, err := experiments.Run(ctx, id, o, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// runAll regenerates the whole evaluation at the given trial
// parallelism; BenchmarkRunAllSequential vs BenchmarkRunAllParallel is
// the `make bench` speedup measurement for the sweep engine.
func runAll(b *testing.B, workers int) {
	b.Helper()
	ctx := context.Background()
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Seed = uint64(i + 1)
		for _, id := range experiments.IDs() {
			if _, err := experiments.Run(ctx, id, o, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunAllSequential runs every experiment with one worker.
func BenchmarkRunAllSequential(b *testing.B) { runAll(b, 1) }

// BenchmarkRunAllParallel runs every experiment with GOMAXPROCS workers.
func BenchmarkRunAllParallel(b *testing.B) { runAll(b, runtime.GOMAXPROCS(0)) }

// BenchmarkTable1Config regenerates Table I.
func BenchmarkTable1Config(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig6AccessPathLatency regenerates Fig. 6 (read latency across
// the four metadata access paths, simulated SCT and HT designs).
func BenchmarkFig6AccessPathLatency(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7SGXLatency regenerates Fig. 7 (access-path latencies on
// the SGX/SIT calibration).
func BenchmarkFig7SGXLatency(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8OverflowLatency regenerates Fig. 8 (read latency bands
// with and without tree counter overflow).
func BenchmarkFig8OverflowLatency(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig11CovertT regenerates Fig. 11 (MetaLeak-T covert channel
// accuracy on SCT and SGX).
func BenchmarkFig11CovertT(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12LevelSweep regenerates Fig. 12 (mEvict+mReload interval
// and coverage per exploited tree level).
func BenchmarkFig12LevelSweep(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig14CovertC regenerates Fig. 14 (MetaLeak-C covert channel).
func BenchmarkFig14CovertC(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15ImageLeak regenerates Fig. 15 (libjpeg image
// reconstruction with MetaLeak-T).
func BenchmarkFig15ImageLeak(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig15CWriteLeak regenerates the §VIII-A2 companion result
// (zero-coefficient recovery with MetaLeak-C).
func BenchmarkFig15CWriteLeak(b *testing.B) { runExperiment(b, "fig15c") }

// BenchmarkFig16RSALeak regenerates Fig. 16 (RSA exponent recovery).
func BenchmarkFig16RSALeak(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17KeyLoadLeak regenerates Fig. 17 (mbedTLS shift/sub trace
// recovery).
func BenchmarkFig17KeyLoadLeak(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkFig18Mirage regenerates Fig. 18 (eviction accuracy under the
// MIRAGE randomized cache).
func BenchmarkFig18Mirage(b *testing.B) { runExperiment(b, "fig18") }

// BenchmarkAblationCounterSchemes compares GC/MoC/SC overflow behaviour
// (the §IV-A design space).
func BenchmarkAblationCounterSchemes(b *testing.B) { runExperiment(b, "ablctr") }

// BenchmarkAblationTrees compares HT/SCT/SIT verification latency and the
// existence of the overflow channel (§IV-C design space).
func BenchmarkAblationTrees(b *testing.B) { runExperiment(b, "abltree") }

// BenchmarkAblationMetaCache sweeps the metadata cache size (§IX-C
// discussion).
func BenchmarkAblationMetaCache(b *testing.B) { runExperiment(b, "ablmeta") }

// ---------------------------------------------------------------------------
// Substrate microbenchmarks: the cost drivers behind the experiments. The
// bodies live in internal/bench, which also records them in BENCH_<N>.json.
// ---------------------------------------------------------------------------

// BenchmarkSecureRead measures one full secure-memory read (path 2).
func BenchmarkSecureRead(b *testing.B) { bench.SecureRead(b) }

// BenchmarkSecureWrite measures one write-through (counter increment +
// encrypt + MAC).
func BenchmarkSecureWrite(b *testing.B) { bench.SecureWrite(b) }

// BenchmarkMEvictReloadRound measures one Monitor round (the Fig. 12 L0
// interval in host time).
func BenchmarkMEvictReloadRound(b *testing.B) { bench.MEvictReloadRound(b) }

// BenchmarkCounterBump measures one MetaLeak-C bump.
func BenchmarkCounterBump(b *testing.B) { bench.CounterBump(b) }

// BenchmarkTreeOverflowL4 measures one L4 tree-counter overflow with its
// re-hash burst posted to DRAM (a counter-leak probe's overflow).
func BenchmarkTreeOverflowL4(b *testing.B) { bench.TreeOverflowL4(b) }

// BenchmarkMAC measures one GHASH MAC of a 64-byte ciphertext block.
func BenchmarkMAC(b *testing.B) { bench.MAC(b) }

// BenchmarkNodeHash measures one tree node hash: an SCT counter block
// with its version counter (72 B) and an arity-32 SCT leaf (272 B).
func BenchmarkNodeHash(b *testing.B) {
	b.Run("72B", bench.NodeHash(72))
	b.Run("272B", bench.NodeHash(272))
}

// BenchmarkAblationSecureOverhead compares secure designs to the
// unprotected baseline.
func BenchmarkAblationSecureOverhead(b *testing.B) { runExperiment(b, "ablsec") }

// BenchmarkDefenseIsolation evaluates the §IX-C per-domain-tree defence.
func BenchmarkDefenseIsolation(b *testing.B) { runExperiment(b, "defiso") }

// BenchmarkDefenseRandomizedMeta deploys MIRAGE as the metadata cache and
// contrasts conflict-based vs volume-based mEvict (§IX-B).
func BenchmarkDefenseRandomizedMeta(b *testing.B) { runExperiment(b, "defrand") }

// BenchmarkAblationMinorWidth sweeps the split-counter minor width.
func BenchmarkAblationMinorWidth(b *testing.B) { runExperiment(b, "ablminor") }

// BenchmarkDefenseLadder contrasts square-and-multiply with the
// Montgomery-ladder victim under the same attack.
func BenchmarkDefenseLadder(b *testing.B) { runExperiment(b, "defladder") }

// BenchmarkAblationNoise sweeps background traffic intensity.
func BenchmarkAblationNoise(b *testing.B) { runExperiment(b, "ablnoise") }
