package experiments

import (
	"fmt"

	"metaleak/internal/arch"
	"metaleak/internal/core"
	"metaleak/internal/machine"
	"metaleak/internal/runner"
)

// attackerPair builds a trojan/spy pair on cores 0 and 1.
func attackerPair(sys *machine.System) (*core.Attacker, *core.Attacker) {
	trojan := core.NewAttacker(sys.System, sys.Ctrl, 0, sys.DP.SGX)
	spy := core.NewAttacker(sys.System, sys.Ctrl, 1, sys.DP.SGX)
	return trojan, spy
}

// fig11Partial is one configuration's transmission outcome.
type fig11Partial struct {
	row          []string
	trace        []arch.Cycles
	boundaryMiss int
	bitsSent     int
}

// SpecFig11 runs the MetaLeak-T covert channel on the SCT design and the
// SGX (SIT) calibration, transmitting o.Bits random bits under
// background noise, and reports bit accuracy plus a latency-trace
// snippet. It runs as four independent trials — SCT, HT, cross-socket
// SCT, and the SGX calibration each transmit on their own machine —
// merged into the figure's accuracy table plus the SCT trace snippet.
func SpecFig11(o Options) *Spec {
	o = o.withDefaults()
	run := func(dp machine.DesignPoint, level int, noise arch.Cycles, seed uint64) (any, error) {
		dp.Seed = seed
		dp.NoiseInterval = noise
		sys := machine.NewSystem(dp)
		trojan, spy := attackerPair(sys)
		ch, err := core.NewCovertT(trojan, spy, level)
		if err != nil {
			return nil, err
		}
		rng := arch.NewRNG(seed ^ 0xb175)
		start := sys.Now()
		for i := 0; i < o.Bits; i++ {
			ch.SendBit(rng.Bool(0.5))
		}
		return &fig11Partial{
			row: []string{
				dp.Name, fmt.Sprintf("L%d", level), fmt.Sprintf("%d", ch.BitsSent),
				pct(ch.Accuracy()), cyc(ch.CyclesPerBit(sys.Now() - start)),
			},
			trace:        ch.Trace,
			boundaryMiss: ch.BoundaryMiss,
			bitsSent:     ch.BitsSent,
		}, nil
	}
	// Cross-socket: the spy's core sits on socket 1; the metadata (and the
	// channel) live with the memory controller on socket 0.
	xs := machine.ConfigSCT()
	xs.Name = "SCT x-socket"
	xs.SocketOf = []int{0, 1, 0, 0}
	return &Spec{
		ID: "fig11",
		Trials: []runner.Trial{
			func() (any, error) {
				return run(machine.ConfigSCT(), 0, 30000, o.Seed+11)
			},
			// The hash-tree design leaks identically (§V: "similar latency
			// distributions in a simulated HT-based design").
			func() (any, error) {
				return run(machine.ConfigHT(), 0, 30000, o.Seed+1113)
			},
			func() (any, error) {
				return run(xs, 0, 30000, o.Seed+1112)
			},
			func() (any, error) {
				return run(machine.ConfigSGX(), 1, 9000, o.Seed+1111)
			},
		},
		Merge: func(parts []any) (*Result, error) {
			r := &Result{
				ID:     "fig11",
				Title:  "MetaLeak-T covert channel accuracy and latency trace",
				Header: []string{"config", "tree level", "bits", "accuracy", "cycles/bit"},
			}
			for _, p := range parts {
				r.Rows = append(r.Rows, p.(*fig11Partial).row)
			}
			// Trace snippet: the spy's transmission-set reload latencies over
			// the final eight bit windows of the SCT run.
			sct := parts[0].(*fig11Partial)
			snippet := "final 8 bit windows, tx reload latencies: "
			n := len(sct.trace)
			if n >= 8 {
				for i := n - 8; i < n; i++ {
					snippet += fmt.Sprintf("%d ", sct.trace[i])
				}
			}
			r.Notes = append(r.Notes, snippet,
				fmt.Sprintf("spy threshold (SCT tx set): boundary misses %d/%d", sct.boundaryMiss, sct.bitsSent))
			r.PaperClaim = "99.3% bit accuracy on SCT; 94.3% on SGX's SIT; operates across cores and sockets"
			r.Measured = fmt.Sprintf("%s on SCT; %s on HT; %s cross-socket; %s on SGX",
				r.Rows[0][3], r.Rows[1][3], r.Rows[2][3], r.Rows[3][3])
			return r, nil
		},
	}
}

// SpecFig12 sweeps the exploited tree node level, measuring the
// mEvict+mReload interval (temporal resolution) and the node's spatial
// coverage, which grows exponentially with level. The per-level
// monitors share one machine's metadata cache history, so it stays one
// trial.
func SpecFig12(o Options) *Spec {
	return single("fig12", func() (*Result, error) { return fig12(o) })
}

func fig12(o Options) (*Result, error) {
	o = o.withDefaults()
	dp := machine.ConfigSCT()
	dp.Seed = o.Seed + 12
	sys := machine.NewSystem(dp)
	a := core.NewAttacker(sys.System, sys.Ctrl, 0, false)
	vic := sys.AllocPage(1)

	r := &Result{
		ID:     "fig12",
		Title:  "mEvict+mReload interval and coverage vs. exploited tree level (SCT)",
		Header: []string{"level", "interval (cycles)", "coverage (data)", "eviction sets"},
	}
	tree := sys.Ctrl.Tree()
	blocksPerCB := sys.Ctrl.Counters().FanOut()
	for level := 0; level < tree.StoredLevels()-1; level++ {
		m, err := a.NewMonitor(vic, level)
		if err != nil {
			return nil, err
		}
		m.Calibrate(6)
		rounds := 20
		start := sys.Now()
		for i := 0; i < rounds; i++ {
			m.Evict()
			m.Reload()
		}
		interval := float64(sys.Now()-start) / float64(rounds)
		covBytes := tree.CoverageCounterBlocks(level) * blocksPerCB * arch.BlockSize
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("L%d", level),
			cyc(interval),
			byteSize(covBytes),
			fmt.Sprintf("%d", level+2),
		})
	}
	r.PaperClaim = "interval grows with level; leaf coverage 32KB-class, x16 per level above"
	r.Measured = fmt.Sprintf("interval %s -> %s cycles across levels; coverage %s -> %s",
		r.Rows[0][1], r.Rows[len(r.Rows)-1][1], r.Rows[0][2], r.Rows[len(r.Rows)-1][2])
	return r, nil
}

func byteSize(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// SpecFig14 runs the MetaLeak-C covert channel: 7-bit symbols encoded in
// the number of writes modulating a shared tree minor counter. One
// shared minor counter carries the whole transmission, so it stays one
// trial.
func SpecFig14(o Options) *Spec {
	return single("fig14", func() (*Result, error) { return fig14(o) })
}

func fig14(o Options) (*Result, error) {
	o = o.withDefaults()
	dp := machine.ConfigSCT()
	dp.Seed = o.Seed + 14
	dp.FastCrypto = true // each symbol costs ~128 saturating writes
	sys := machine.NewSystem(dp)
	trojan, spy := attackerPair(sys)
	ch, err := core.NewCovertC(trojan, spy, arch.PageID(1<<13), 0)
	if err != nil {
		return nil, err
	}
	rng := arch.NewRNG(o.Seed ^ 0xc14)
	sent := make([]int, o.Symbols)
	for i := range sent {
		sent[i] = rng.Intn(ch.MaxSymbol() + 1)
	}
	got, err := ch.Send(sent)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:     "fig14",
		Title:  "MetaLeak-C covert channel: 7-bit symbols via counter modulation",
		Header: []string{"symbols", "accuracy", "bits/symbol"},
		Rows: [][]string{{
			fmt.Sprintf("%d", ch.SymbolsSent), pct(ch.Accuracy()), "7",
		}},
	}
	n := 4
	if len(sent) < n {
		n = len(sent)
	}
	snip := "transmission windows (sent -> decoded, probe writes m): "
	for i := 0; i < n; i++ {
		snip += fmt.Sprintf("[%d -> %d, m=%d] ", sent[i], got[i], ch.Trace[i])
	}
	r.Notes = append(r.Notes, snip)
	r.PaperClaim = "99.7% average transmission accuracy"
	r.Measured = fmt.Sprintf("%s over %d symbols", pct(ch.Accuracy()), ch.SymbolsSent)
	return r, nil
}

// coreAttacker builds an unprivileged attacker on core 0 of the system.
func coreAttacker(sys *machine.System) *core.Attacker {
	return core.NewAttacker(sys.System, sys.Ctrl, 0, sys.DP.SGX)
}
