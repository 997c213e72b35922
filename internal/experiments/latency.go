package experiments

import (
	"fmt"
	"sort"

	"metaleak/internal/arch"
	"metaleak/internal/core"
	"metaleak/internal/machine"
	"metaleak/internal/runner"
	"metaleak/internal/secmem"
	"metaleak/internal/stats"
)

// SpecTable1 prints the simulated and SGX configurations (the
// reproduction's Table I): one pure trial, nothing to merge.
func SpecTable1(o Options) *Spec {
	return single("table1", func() (*Result, error) { return table1(o) })
}

func table1(o Options) (*Result, error) {
	r := &Result{
		ID:     "table1",
		Title:  "Simulated secure processors and the SGX configuration",
		Header: []string{"config", "encryption", "integrity tree", "secure region", "meta cache"},
	}
	row := func(dp machine.DesignPoint) []string {
		enc := fmt.Sprintf("%s counters", dp.Counter)
		if dp.Counter == machine.CounterSC {
			enc = fmt.Sprintf("SC (64-bit major, %d-bit minors)", dp.MinorBits)
		}
		if dp.Counter == machine.CounterMoC {
			enc = fmt.Sprintf("MoC (%d-bit monolithic)", dp.MoCBits)
		}
		tree := fmt.Sprintf("%s, arities %v", dp.Tree, dp.TreeArities)
		region := fmt.Sprintf("%d MiB", dp.SecurePages*arch.PageSize/(1<<20))
		meta := fmt.Sprintf("%d KiB, %d-way", dp.MetaKB, machine.MetaCacheConfig(dp).Ways)
		return []string{dp.Name, enc, tree, region, meta}
	}
	for _, dp := range []machine.DesignPoint{machine.ConfigSCT(), machine.ConfigHT(), machine.ConfigSGX()} {
		r.Rows = append(r.Rows, row(dp))
	}
	r.PaperClaim = "Table I: SCT 32/16-ary 6-level over 64 GB; HT 8-ary BMT; SGX SIT 8-ary 4-level over EPC"
	r.Measured = "configurations reproduced structurally"
	return r, nil
}

// pathBuckets drives one machine through a mixed access pattern and
// collects read latencies per Fig. 5 path class.
func pathBuckets(dp machine.DesignPoint, samples int, seed uint64) map[string]stats.Sample {
	dp.Seed = seed
	sys := machine.NewSystem(dp)
	rng := arch.NewRNG(seed ^ 0xf16)
	buckets := make(map[string]stats.Sample)
	record := func(key string, lat arch.Cycles) {
		buckets[key] = append(buckets[key], lat)
	}
	classify := func(rep secmem.Report) string {
		switch rep.Path {
		case secmem.PathCacheHit:
			return "path1 (cache hit)"
		case secmem.PathCounterHit:
			return "path2 (counter hit)"
		case secmem.PathTreeHit:
			return "path3 (tree leaf hit)"
		default:
			return fmt.Sprintf("path4 (%d tree levels loaded)", rep.TreeLevelsLoaded)
		}
	}
	limit := sys.SecurePages()
	groups := samples / 4
	if groups < 1 {
		groups = 1
	}
	for g := 0; g < groups; g++ {
		// A far page: exercises path 4 with a history-dependent number of
		// levels loaded.
		var base arch.PageID
		for {
			base = arch.PageID(rng.Intn(limit - 2))
			if sys.Owner(base) == -1 && sys.Owner(base+1) == -1 {
				break
			}
		}
		if err := sys.AllocFrame(0, base); err != nil {
			continue
		}
		if err := sys.AllocFrame(0, base+1); err != nil {
			continue
		}
		b := base.Block(0)
		_, res := sys.Read(0, b)
		record(classify(res.Report), res.Latency)
		// A block with a different counter block under the now-cached leaf:
		// the adjacent page for page-granular counter blocks (SC), or the
		// next counter-octet of the same page for SIT/MoC. Path 3.
		_, res = sys.Read(0, (base + 1).Block(0))
		record(classify(res.Report), res.Latency)
		_, res = sys.Read(0, base.Block(8))
		record(classify(res.Report), res.Latency)
		// Re-read: path 1.
		_, res = sys.Read(0, b)
		record(classify(res.Report), res.Latency)
		// Flush the data line only: path 2.
		sys.Flush(0, b)
		_, res = sys.Read(0, b)
		record(classify(res.Report), res.Latency)
	}
	return buckets
}

func bucketResult(id, title string, buckets map[string]stats.Sample) *Result {
	r := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"access path", "samples", "min", "mean", "p95"},
	}
	// Stable row order: path1..path4 by name.
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := buckets[k]
		r.Rows = append(r.Rows, []string{
			k,
			fmt.Sprintf("%d", len(s)),
			fmt.Sprintf("%d", s.Percentile(0)),
			cyc(s.Mean()),
			fmt.Sprintf("%d", s.Percentile(0.95)),
		})
	}
	return r
}

// SpecFig6 reproduces the latency distributions across access paths on
// the simulated SCT design (and reports the HT design alongside, per
// §V), including the §V "Memory Write Latency" characterization. It
// runs as three independent trials — the SCT sweep, the HT sweep, and
// the write-path characterization each drive their own machine —
// merged into the figure's single table.
func SpecFig6(o Options) *Spec {
	o = o.withDefaults()
	const title = "Read latency across metadata access paths (simulated SCT)"
	return &Spec{
		ID: "fig6",
		Trials: []runner.Trial{
			func() (any, error) {
				return pathBuckets(machine.ConfigSCT(), o.Samples, o.Seed+6), nil
			},
			func() (any, error) {
				return pathBuckets(machine.ConfigHT(), o.Samples/2, o.Seed+66), nil
			},
			func() (any, error) {
				warm, cold := writeBuckets(machine.ConfigSCT(), o.Samples/4, o.Seed+67)
				return [2]stats.Sample{warm, cold}, nil
			},
		},
		Merge: func(parts []any) (*Result, error) {
			buckets := parts[0].(map[string]stats.Sample)
			ht := parts[1].(map[string]stats.Sample)
			wc := parts[2].([2]stats.Sample)
			r := bucketResult("fig6", title, buckets)
			r.Notes = append(r.Notes, "HT design (same experiment):")
			for _, row := range bucketResult("", "", ht).Rows {
				r.Notes = append(r.Notes, fmt.Sprintf("  %-32s mean %s", row[0], row[3]))
			}
			// §V Memory Write Latency: the write path exhibits the same
			// counter/tree-dependent variation as reads.
			warm, cold := wc[0], wc[1]
			r.Notes = append(r.Notes,
				fmt.Sprintf("write path, counter on-chip:  %s", warm.Summary()),
				fmt.Sprintf("write path, counter+tree cold: %s", cold.Summary()))
			r.PaperClaim = "distinct bands ~30..450 cycles; ~450 when all tree levels miss; HT similar; writes show the same variation"
			r.Measured = summarizeBands(buckets)
			return r, nil
		},
	}
}

// writeBuckets measures write-through latencies with warm vs. cold
// metadata (the §V write-path characterization).
func writeBuckets(dp machine.DesignPoint, samples int, seed uint64) (warm, cold stats.Sample) {
	dp.Seed = seed
	sys := machine.NewSystem(dp)
	rng := arch.NewRNG(seed ^ 0x6f17)
	for i := 0; i < samples; i++ {
		var p arch.PageID
		for {
			p = arch.PageID(rng.Intn(sys.SecurePages()))
			if sys.Owner(p) == -1 {
				break
			}
		}
		if err := sys.AllocFrame(0, p); err != nil {
			continue
		}
		b := p.Block(0)
		res := sys.WriteThrough(0, b, [arch.BlockSize]byte{byte(i)})
		cold.Add(res.Latency)
		res = sys.WriteThrough(0, b, [arch.BlockSize]byte{byte(i + 1)})
		warm.Add(res.Latency)
	}
	return warm, cold
}

// SpecFig7 is SpecFig6 on the SGX (SIT) configuration: one machine, one
// trial.
func SpecFig7(o Options) *Spec {
	o = o.withDefaults()
	return single("fig7", func() (*Result, error) {
		buckets := pathBuckets(machine.ConfigSGX(), o.Samples, o.Seed+7)
		r := bucketResult("fig7", "Read latency across access paths (SGX/SIT calibration)", buckets)
		r.PaperClaim = "bands ~150..700 cycles; ~250 with tree leaf cached, ~650 with all levels missed"
		r.Measured = summarizeBands(buckets)
		return r, nil
	})
}

func summarizeBands(buckets map[string]stats.Sample) string {
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s mean=%s; ", k, cyc(buckets[k].Mean()))
	}
	return out
}

// SpecFig8 reproduces the memory read latency impact of tree counter
// overflow: a timed read to a block in a bank carrying the subtree
// re-hash traffic lands in a far slower band when the preceding write
// overflowed the tree minor. The overflow cycles share one counter
// monitor's machine history, so it stays one trial.
func SpecFig8(o Options) *Spec {
	return single("fig8", func() (*Result, error) { return fig8(o) })
}

func fig8(o Options) (*Result, error) {
	o = o.withDefaults()
	dp := machine.ConfigSCT()
	dp.Seed = o.Seed + 8
	dp.FastCrypto = true // Fig8 needs thousands of saturating writes
	sys := machine.NewSystem(dp)
	a := core.NewAttacker(sys.System, sys.Ctrl, 0, false)
	cm, err := a.NewCounterMonitor(arch.PageID(1<<12), -1)
	if err != nil {
		return nil, err
	}
	cm.Calibrate()

	// The monitor's Bump already performs the paper's measurement: a timed
	// read (to a block sharing a bank with the subtree's counter blocks)
	// interleaved with the write activity. Classify each bump's probe
	// latency by the ground-truth overflow position in the cycle.
	cycles := o.Samples / 100
	if cycles < 8 {
		cycles = 8
	}
	var noOv, ov stats.Sample
	max := int(cm.MinorMax())
	for c := 0; c < cycles; c++ {
		// Post-overflow state is 1; bump to saturation, sampling normal
		// reads along the way.
		for k := 1; k < max; k++ {
			_, lat := cm.Bump()
			if k%16 == 0 {
				noOv = append(noOv, lat)
			}
		}
		// The saturating write is in place; the next bump overflows.
		_, lat := cm.Bump()
		ov = append(ov, lat)
	}
	r := &Result{
		ID:     "fig8",
		Title:  "Read latency with and without tree counter overflow (SCT)",
		Header: []string{"condition", "samples", "min", "mean", "p95"},
		Rows: [][]string{
			{"no overflow", fmt.Sprintf("%d", len(noOv)), fmt.Sprintf("%d", noOv.Percentile(0)), cyc(noOv.Mean()), fmt.Sprintf("%d", noOv.Percentile(0.95))},
			{"overflow", fmt.Sprintf("%d", len(ov)), fmt.Sprintf("%d", ov.Percentile(0)), cyc(ov.Mean()), fmt.Sprintf("%d", ov.Percentile(0.95))},
		},
	}
	// Render the two distributions (the textual analogue of the figure).
	all := append(append(stats.Sample{}, noOv...), ov...)
	r.Notes = append(r.Notes, "combined latency distribution:", stats.NewHistogram(all, 12).ASCII(36))
	r.PaperClaim = "two distinct latency bands ~2000 cycles apart"
	r.Measured = fmt.Sprintf("no-overflow mean=%s, overflow mean=%s (gap %.0f cycles)",
		cyc(noOv.Mean()), cyc(ov.Mean()), ov.Mean()-noOv.Mean())
	return r, nil
}
