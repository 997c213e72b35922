package experiments

import (
	"fmt"

	"metaleak/internal/arch"
	"metaleak/internal/core"
	"metaleak/internal/machine"
	"metaleak/internal/mpi"
	"metaleak/internal/reconstruct"
	"metaleak/internal/runner"
	"metaleak/internal/stats"
	"metaleak/internal/victim"
)

// SpecDefenseIsolation evaluates the §IX-C mitigation: per-domain integrity
// trees with private on-chip roots. The attack construction itself must
// fail — there is no shared non-root node to monitor and no shared
// version counter to modulate — while honest execution and tamper
// detection keep working. The costs the paper flags (extra roots, memory
// stranding from fixed partitioning) are reported.
// Every probe runs against the same four-domain machine, one trial.
func SpecDefenseIsolation(o Options) *Spec {
	return single("defiso", func() (*Result, error) { return defenseIsolation(o) })
}

func defenseIsolation(o Options) (*Result, error) {
	o = o.withDefaults()
	dp := machine.ConfigSCT()
	dp.Seed = o.Seed + 93
	dp.SecurePages = 1 << 20
	dp.IsolatedDomains = 4
	sys := machine.NewSystem(dp)
	victimPage := sys.AllocPage(1)
	attacker := core.NewAttacker(sys.System, sys.Ctrl, 0, true)

	r := &Result{
		ID:     "defiso",
		Title:  "Defence: per-domain integrity trees (§IX-C) vs. MetaLeak",
		Header: []string{"attack step", "outcome"},
	}
	levels := sys.Ctrl.Tree().StoredLevels()
	blocked := 0
	for level := 0; level < levels; level++ {
		if _, err := attacker.NewMonitor(victimPage, level); err != nil {
			blocked++
		}
	}
	r.Rows = append(r.Rows, []string{
		"MetaLeak-T monitor construction",
		fmt.Sprintf("blocked at %d/%d tree levels (no claimable frame shares a node with the victim)", blocked, levels),
	})
	_, cmErr := attacker.NewCounterMonitor(victimPage, 1, victimPage.Block(0))
	outcome := "blocked (no shared version counter reachable)"
	if cmErr == nil {
		outcome = "NOT blocked"
	}
	r.Rows = append(r.Rows, []string{"MetaLeak-C counter monitor", outcome})

	// Functionality and integrity still hold.
	var lat stats.Sample
	for core := 0; core < 4; core++ {
		p := sys.AllocPage(core)
		res := sys.WriteThrough(core, p.Block(0), [arch.BlockSize]byte{byte(core)})
		lat.Add(res.Latency)
		if _, rr := sys.Read(core, p.Block(0)); rr.Report.Tampered {
			return nil, fmt.Errorf("defiso: false tamper detection")
		}
	}
	r.Rows = append(r.Rows, []string{"honest execution", fmt.Sprintf("intact (write-through %s)", lat.Summary())})

	r.Notes = append(r.Notes,
		fmt.Sprintf("cost: %d on-chip roots instead of 1; fixed %d-page domain slices (memory stranding, as §IX-C warns)",
			isoRootCount(sys), dp.SecurePages/dp.IsolatedDomains))
	r.PaperClaim = "isolated per-domain trees remove non-root node sharing; fixed partitioning is inflexible"
	r.Measured = fmt.Sprintf("MetaLeak-T blocked at %d/%d levels; MetaLeak-C blocked; functionality preserved", blocked, levels)
	return r, nil
}

func isoRootCount(sys *machine.System) int {
	type rooted interface{ RootCount() int }
	if t, ok := sys.Ctrl.Tree().(rooted); ok {
		return t.RootCount()
	}
	return 1
}

// ablsecPartial is one configuration's latency profile.
type ablsecPartial struct {
	name              string
	cold, warm, write stats.Sample
}

// SpecAblationSecureOverhead compares the secure designs against an
// unprotected baseline — the cost of the metadata machinery whose timing
// variation MetaLeak exploits. (VUL-1/VUL-2 exist precisely because this
// machinery is not free.)
// It runs as one trial per configuration (the insecure baseline first);
// the merge computes every slowdown against the baseline partial.
func SpecAblationSecureOverhead(o Options) *Spec {
	o = o.withDefaults()
	measure := func(dp machine.DesignPoint) (any, error) {
		p := &ablsecPartial{name: dp.Name}
		dp.Seed = o.Seed + 94
		if dp.SecurePages > 1<<16 {
			dp.SecurePages = 1 << 16
		}
		sys := machine.NewSystem(dp)
		for i := 0; i < 200; i++ {
			pg := sys.AllocPage(0)
			b := pg.Block(0)
			_, res := sys.Read(0, b)
			p.cold.Add(res.Latency)
			sys.Flush(0, b)
			_, res = sys.Read(0, b)
			p.warm.Add(res.Latency)
			wres := sys.WriteThrough(0, b, [arch.BlockSize]byte{byte(i)})
			p.write.Add(wres.Latency)
		}
		return p, nil
	}
	base := machine.ConfigSCT()
	base.Name = "insecure"
	base.Insecure = true
	points := []machine.DesignPoint{base, machine.ConfigSCT(), machine.ConfigHT(), machine.ConfigSGX()}
	trials := make([]runner.Trial, len(points))
	for i, dp := range points {
		dp := dp
		trials[i] = func() (any, error) { return measure(dp) }
	}
	return &Spec{
		ID:     "ablsec",
		Trials: trials,
		Merge: func(parts []any) (*Result, error) {
			r := &Result{
				ID:     "ablsec",
				Title:  "Ablation: secure-memory overhead vs. unprotected baseline",
				Header: []string{"config", "cold read", "warm-metadata read", "write-through", "read slowdown"},
			}
			baseline := parts[0].(*ablsecPartial)
			r.Rows = append(r.Rows, []string{"insecure",
				cyc(baseline.cold.Mean()), cyc(baseline.warm.Mean()), cyc(baseline.write.Mean()), "1.0x"})
			for _, part := range parts[1:] {
				p := part.(*ablsecPartial)
				r.Rows = append(r.Rows, []string{
					p.name, cyc(p.cold.Mean()), cyc(p.warm.Mean()), cyc(p.write.Mean()),
					fmt.Sprintf("%.1fx", p.cold.Mean()/baseline.cold.Mean()),
				})
			}
			r.PaperClaim = "(context) metadata maintenance is the overhead that creates VUL-1/VUL-2's timing surface"
			r.Measured = "secure cold reads pay the counter fetch + tree walk over the flat baseline"
			return r, nil
		},
	}
}

// defrandPartial is one configuration's monitor outcome.
type defrandPartial struct {
	rows [][]string
	acc  float64
	cyc  float64
}

// scoreRounds drives rounds evict/victim/reload windows, the victim on
// core 1 touching page's first block in every even window, and returns
// the monitor's classification accuracy and the mean round cost in
// cycles.
func scoreRounds(sys *machine.System, page arch.PageID, rounds int, evict func(), reload func() (bool, arch.Cycles)) (acc, perRound float64) {
	correct := 0
	start := sys.Now()
	for i := 0; i < rounds; i++ {
		evict()
		want := i%2 == 0
		if want {
			sys.Flush(1, page.Block(0))
			sys.Touch(1, page.Block(0))
		}
		got, _ := reload()
		if got == want {
			correct++
		}
	}
	return float64(correct) / float64(rounds), float64(sys.Now()-start) / float64(rounds)
}

// SpecDefenseRandomizedMeta deploys MIRAGE as the metadata cache (§IX-B) and
// measures both halves of the paper's argument: conflict-based mEvict
// becomes impossible (no set geometry), yet MetaLeak-T survives via
// volume-based eviction — at a cost quantified against the baseline.
// It runs as two trials — the set-associative baseline machine and the
// MIRAGE machine — merged into the comparison table with the relative
// round cost.
func SpecDefenseRandomizedMeta(o Options) *Spec {
	o = o.withDefaults()
	base := machine.ConfigSCT()
	base.Seed = o.Seed + 95
	base.SecurePages = 1 << 16
	base.MetaKB = 16
	base.FastCrypto = true
	return &Spec{
		ID: "defrand",
		Trials: []runner.Trial{
			func() (any, error) {
				// Baseline: set-associative metadata cache, conflict-based
				// monitor.
				bSys := machine.NewSystem(base)
				bVictim := bSys.AllocPage(1)
				bAtk := core.NewAttacker(bSys.System, bSys.Ctrl, 0, false)
				bMon, err := bAtk.NewMonitor(bVictim, 0)
				if err != nil {
					return nil, err
				}
				bMon.Calibrate(8)
				bAcc, bCyc := scoreRounds(bSys, bVictim, 60, bMon.Evict, bMon.Reload)
				return &defrandPartial{
					rows: [][]string{{"set-associative (baseline)", "conflict eviction sets", pct(bAcc), cyc(bCyc)}},
					acc:  bAcc,
					cyc:  bCyc,
				}, nil
			},
			func() (any, error) {
				// Defended: MIRAGE metadata cache.
				dp := base
				dp.Seed = o.Seed + 96
				dp.RandomizedMeta = true
				sys := machine.NewSystem(dp)
				victimPage := sys.AllocPage(1)
				attacker := core.NewAttacker(sys.System, sys.Ctrl, 0, false)
				if _, err := attacker.NewMonitor(victimPage, 0); err == nil {
					return nil, fmt.Errorf("defrand: conflict monitor unexpectedly built")
				}
				vm, err := attacker.NewVolumeMonitor(victimPage, 0, 800)
				if err != nil {
					return nil, err
				}
				vm.Calibrate(10)
				vAcc, vCyc := scoreRounds(sys, victimPage, 60, vm.Evict, vm.Reload)
				return &defrandPartial{
					rows: [][]string{
						{"MIRAGE metadata cache", "conflict eviction sets", "impossible (no set mapping)", "-"},
						{"MIRAGE metadata cache", "volume flooding (Fig. 18)", pct(vAcc), cyc(vCyc)},
					},
					acc: vAcc,
					cyc: vCyc,
				}, nil
			},
		},
		Merge: func(parts []any) (*Result, error) {
			baseline, mirage := parts[0].(*defrandPartial), parts[1].(*defrandPartial)
			r := &Result{
				ID:     "defrand",
				Title:  "Defence: MIRAGE-randomized metadata cache vs. MetaLeak-T",
				Header: []string{"configuration", "mEvict strategy", "accuracy (60 rounds)", "cycles/round"},
			}
			r.Rows = append(r.Rows, baseline.rows...)
			r.Rows = append(r.Rows, mirage.rows...)
			r.PaperClaim = "randomization defeats eviction-set construction but not MetaLeak: ~7000 random accesses still evict the target (Fig. 18 / §IX-B)"
			r.Measured = fmt.Sprintf("conflict mEvict impossible; volume mEvict %s accurate at %.0fx the baseline round cost",
				pct(mirage.acc), mirage.cyc/baseline.cyc)
			return r, nil
		},
	}
}

// SpecDefenseLadder evaluates the classic software countermeasure: the same
// MetaLeak-T attack against the square-and-multiply victim and against a
// Montgomery-ladder victim. The attacker's page classification stays
// near-perfect in both cases — but the ladder's access sequence carries no
// key information, so recovery collapses to coin-flipping.
// It runs as one trial per victim implementation, each attacked on its
// own machine.
func SpecDefenseLadder(o Options) *Spec {
	o = o.withDefaults()
	type expRun func(v *victim.RSAVictim, base, e, m mpi.Int, iv *victim.Interleave) (mpi.Int, []victim.Op)
	run := func(name string, f expRun) (any, error) {
		dp := machine.ConfigSCT()
		dp.Seed = o.Seed + 98
		dp.SecurePages = 1 << 16
		sys := machine.NewSystem(dp)
		attacker := core.NewAttacker(sys.System, sys.Ctrl, 0, false)
		frames, err := attacker.PlaceVictimPages(1, 2, 0)
		if err != nil {
			return nil, err
		}
		rv := &victim.RSAVictim{Proc: victim.NewProc(sys.System, 1), SqrPage: frames[0], MulPage: frames[1]}
		dm, err := attacker.NewDualMonitor(rv.SqrPage, rv.MulPage, 0)
		if err != nil {
			return nil, err
		}
		rng := arch.NewRNG(o.Seed ^ 0x1ad)
		exp := mpi.Random(rng, o.ExpBits)
		modulus := mpi.Random(rng, 2*o.ExpBits)
		if !modulus.IsOdd() {
			modulus = modulus.Add(mpi.New(1))
		}
		var ops []victim.Op
		iv := &victim.Interleave{
			Before: dm.Evict,
			After: func() {
				if dm.Classify() {
					ops = append(ops, victim.OpSquare)
				} else {
					ops = append(ops, victim.OpMultiply)
				}
			},
		}
		_, oracle := f(rv, mpi.New(65537), exp, modulus, iv)
		opAcc := reconstruct.OpAccuracy(ops, oracle)
		bits := reconstruct.ExponentFromOps(ops)
		want := reconstruct.BitsOfExponent(exp)
		bitAcc := reconstruct.AlignedAccuracy(bits, want)
		return []string{
			name, fmt.Sprintf("%d", len(oracle)), pct(opAcc), pct(bitAcc),
		}, nil
	}
	return &Spec{
		ID: "defladder",
		Trials: []runner.Trial{
			func() (any, error) {
				return run("square-and-multiply (libgcrypt 1.5.2)", (*victim.RSAVictim).ModExp)
			},
			func() (any, error) {
				return run("Montgomery ladder (hardened)", (*victim.RSAVictim).ModExpLadder)
			},
		},
		Merge: func(parts []any) (*Result, error) {
			r := &Result{
				ID:     "defladder",
				Title:  "Defence: constant-sequence exponentiation (Montgomery ladder) vs. MetaLeak-T",
				Header: []string{"victim implementation", "ops observed", "op classification", "exponent recovery"},
			}
			for _, part := range parts {
				r.Rows = append(r.Rows, part.([]string))
			}
			r.PaperClaim = "(§IX context) constant-sequence implementations remove the call-sequence leak even though the channel itself persists"
			r.Measured = fmt.Sprintf("ops classified %s vs %s; key recovery %s vs %s",
				r.Rows[0][2], r.Rows[1][2], r.Rows[0][3], r.Rows[1][3])
			return r, nil
		},
	}
}
