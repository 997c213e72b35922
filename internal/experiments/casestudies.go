package experiments

import (
	"fmt"
	"strings"

	"metaleak/internal/arch"
	"metaleak/internal/core"
	"metaleak/internal/jpeg"
	"metaleak/internal/machine"
	"metaleak/internal/mpi"
	"metaleak/internal/reconstruct"
	"metaleak/internal/runner"
	"metaleak/internal/victim"
)

// jpegAttackT mounts the §VIII-A1 attack on one image and returns the
// recovered trace, the oracle, and the images.
func jpegAttackT(sys *machine.System, kind jpeg.SyntheticKind, size int) (rec []bool, tr *victim.CoefTrace, original, recovered, oracle *jpeg.Image, err error) {
	attacker := core.NewAttacker(sys.System, sys.Ctrl, 0, sys.DP.SGX)
	frames, err := attacker.PlaceVictimPages(1, 2, 0)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	vp := victim.NewProc(sys.System, 1)
	jv := &victim.JPEGVictim{Proc: vp, RPage: frames[0], NbitsPage: frames[1]}
	dm, err := attacker.NewDualMonitor(jv.RPage, jv.NbitsPage, 0)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	im, err := jpeg.Synthetic(kind, size, size)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	iv := &victim.Interleave{
		Before: dm.Evict,
		After:  func() { rec = append(rec, !dm.Classify()) },
	}
	// No step jitter here: the coefficient trace is scored positionally,
	// so a single synchronization slip would cascade — the paper's jpeg
	// attack keeps alignment via the loop's boundary structure.
	_, tr, err = jv.Encode(im, iv)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	recovered = reconstruct.ImageFromTrace(rec, tr.W, tr.H, tr.Quality)
	oracle = reconstruct.OracleImage(tr)
	return rec, tr, im, recovered, oracle, nil
}

// fig15Partial is one image's attack outcome.
type fig15Partial struct {
	row   []string
	acc   float64
	notes []string
}

// SpecFig15 reproduces the libjpeg image-reconstruction case study with
// MetaLeak-T on the SCT design.
// It runs as one trial per victim image, each mounting the attack on
// its own machine.
func SpecFig15(o Options) *Spec {
	o = o.withDefaults()
	kinds := []jpeg.SyntheticKind{jpeg.PatternCircle, jpeg.PatternStripes, jpeg.PatternText}
	trials := make([]runner.Trial, len(kinds))
	for i, kind := range kinds {
		i, kind := i, kind
		trials[i] = func() (any, error) {
			dp := machine.ConfigSCT()
			dp.Seed = o.Seed + 15 + uint64(i)
			dp.NoiseInterval = 30000
			sys := machine.NewSystem(dp)
			rec, tr, original, recovered, oracle, err := jpegAttackT(sys, kind, o.ImageSize)
			if err != nil {
				return nil, err
			}
			acc := reconstruct.TraceAccuracy(rec, tr.NonZero)
			p := &fig15Partial{
				row: []string{
					string(kind), fmt.Sprintf("%d", len(tr.NonZero)), pct(acc),
					pct(reconstruct.PixelSimilarity(recovered, oracle)),
				},
				acc: acc,
			}
			if kind == jpeg.PatternText {
				p.notes = []string{
					"original image:", original.ASCII(o.ImageSize),
					"attacker reconstruction:", recovered.ASCII(o.ImageSize),
				}
			}
			return p, nil
		}
	}
	return &Spec{
		ID:     "fig15",
		Trials: trials,
		Merge: func(parts []any) (*Result, error) {
			r := &Result{
				ID:     "fig15",
				Title:  "Image reconstruction from libjpeg with MetaLeak-T (SCT)",
				Header: []string{"image", "coefficients", "stealing accuracy", "similarity to oracle"},
			}
			var accSum float64
			for _, part := range parts {
				p := part.(*fig15Partial)
				accSum += p.acc
				r.Rows = append(r.Rows, p.row)
				r.Notes = append(r.Notes, p.notes...)
			}
			r.PaperClaim = "up to 97% stealing accuracy (94.3% overall); reconstructions close to the oracle"
			r.Measured = fmt.Sprintf("mean stealing accuracy %s across %d images", pct(accSum/float64(len(parts))), len(parts))
			return r, nil
		},
	}
}

// SpecFig15C reproduces the §VIII-A2 variant: recovering the zero-elements of
// the entropy blocks by observing victim writes to r with
// mPreset+mOverflow on a shared tree minor at the 2nd level.
// One victim encode under one counter monitor, one trial.
func SpecFig15C(o Options) *Spec {
	return single("fig15c", func() (*Result, error) { return fig15C(o) })
}

func fig15C(o Options) (*Result, error) {
	o = o.withDefaults()
	dp := machine.ConfigSCT()
	dp.Seed = o.Seed + 152
	dp.FastCrypto = true // ~128 attacker writes per probed coefficient
	sys := machine.NewSystem(dp)
	attacker := core.NewAttacker(sys.System, sys.Ctrl, 0, false)
	frames, err := attacker.PlaceVictimPages(1, 2, 1)
	if err != nil {
		return nil, err
	}
	vp := victim.NewProc(sys.System, 1)
	jv := &victim.JPEGVictim{Proc: vp, RPage: frames[0], NbitsPage: frames[1], WriteR: true}

	// The attacker shares a minor counter at the 2nd tree level on the
	// verification path of r (child = victim L1 node).
	rBlock := jv.RPage.Block(0)
	cm, err := attacker.NewCounterMonitor(jv.RPage, 1, rBlock)
	if err != nil {
		return nil, err
	}
	cm.Calibrate()
	max := cm.MinorMax()

	size := o.ImageSize / 3
	if size < 8 {
		size = 8
	}
	im, _ := jpeg.Synthetic(jpeg.PatternCircle, size, size)
	var recovered []bool
	iv := &victim.Interleave{
		Before: func() { cm.Preset(max - 1) },
		After: func() {
			cm.PropagateVictim(rBlock)
			m, err := cm.ProbeOverflow(4)
			wrote := err == nil && m == 1
			recovered = append(recovered, !wrote) // wrote r => zero coefficient
		},
	}
	_, tr, err := jv.Encode(im, iv)
	if err != nil {
		return nil, err
	}
	acc := reconstruct.TraceAccuracy(recovered, tr.NonZero)
	r := &Result{
		ID:     "fig15c",
		Title:  "Zero-coefficient recovery from libjpeg writes with MetaLeak-C (SCT, tree L2 minor)",
		Header: []string{"image", "coefficients", "zero-element accuracy"},
		Rows: [][]string{{
			string(jpeg.PatternCircle), fmt.Sprintf("%d", len(tr.NonZero)), pct(acc),
		}},
	}
	r.PaperClaim = "97.2% zero-element recovery accuracy"
	r.Measured = fmt.Sprintf("%s over %d coefficients", pct(acc), len(tr.NonZero))
	return r, nil
}

// rsaAttack mounts the §VIII-B1 attack on one machine at one tree level.
// stepSkip/stepDouble model SGX-Step synchronization imprecision (0 for
// the perfectly stepped simulator).
func rsaAttack(sys *machine.System, level, expBits int, seed uint64, stepSkip, stepDouble float64) (bitAcc float64, traceLen int, err error) {
	acc, n, _, err := rsaAttackTraced(sys, level, expBits, seed, stepSkip, stepDouble)
	return acc, n, err
}

// rsaAttackTraced additionally returns the first reload-latency pairs
// (square monitor, multiply monitor) — the Fig. 16 observation trace.
func rsaAttackTraced(sys *machine.System, level, expBits int, seed uint64, stepSkip, stepDouble float64) (bitAcc float64, traceLen int, trace []string, err error) {
	attacker := core.NewAttacker(sys.System, sys.Ctrl, 0, sys.DP.SGX)
	frames, err := attacker.PlaceVictimPages(1, 2, level)
	if err != nil {
		return 0, 0, nil, err
	}
	vp := victim.NewProc(sys.System, 1)
	rv := &victim.RSAVictim{Proc: vp, SqrPage: frames[0], MulPage: frames[1]}
	dm, err := attacker.NewDualMonitor(rv.SqrPage, rv.MulPage, level)
	if err != nil {
		return 0, 0, nil, err
	}
	rng := arch.NewRNG(seed)
	exp := mpi.Random(rng, expBits)
	modulus := mpi.Random(rng, 2*expBits)
	if !modulus.IsOdd() {
		modulus = modulus.Add(mpi.New(1))
	}
	var ops []victim.Op
	iv := &victim.Interleave{
		Before: dm.Evict,
		After: func() {
			isSqr, aLat, bLat := dm.ClassifyDetail()
			if len(trace) < 10 {
				op := "M"
				if isSqr {
					op = "S"
				}
				trace = append(trace, fmt.Sprintf("[sqr=%d mul=%d -> %s]", aLat, bLat, op))
			}
			if isSqr {
				ops = append(ops, victim.OpSquare)
			} else {
				ops = append(ops, victim.OpMultiply)
			}
		},
	}
	iv = victim.Jitter(iv, arch.NewRNG(seed^0x57e9), stepSkip, stepDouble)
	_, _ = rv.ModExp(mpi.New(65537), exp, modulus, iv)
	bits := reconstruct.ExponentFromOps(ops)
	want := reconstruct.BitsOfExponent(exp)
	// Alignment-aware scoring: trace misreads insert/delete bits, which an
	// attacker realigns using the known square-and-multiply structure.
	return reconstruct.AlignedAccuracy(bits, want), len(ops), trace, nil
}

// fig16Partial is one configuration's recovery outcome.
type fig16Partial struct {
	row   []string
	notes []string
	acc   float64
}

// SpecFig16 reproduces the libgcrypt RSA exponent recovery on the SGX
// calibration (integrity tree L1 sharing) and the simulated SCT design.
// It runs as two independent trials: the SGX enclave attack and the
// simulated-SCT attack each drive their own machine.
func SpecFig16(o Options) *Spec {
	o = o.withDefaults()
	return &Spec{
		ID: "fig16",
		Trials: []runner.Trial{
			func() (any, error) {
				sgx := machine.ConfigSGX()
				sgx.Seed = o.Seed + 16
				sgx.NoiseInterval = 15000
				// SGX-Step on hardware misses/doubles a few percent of single
				// steps; the jitter knob reproduces that imprecision
				// (EXPERIMENTS.md).
				acc, n, trace, err := rsaAttackTraced(machine.NewSystem(sgx), 1, o.ExpBits, o.Seed+161, 0.04, 0.02)
				if err != nil {
					return nil, err
				}
				return &fig16Partial{
					row:   []string{"SGX", "L1", fmt.Sprintf("%d", n), pct(acc)},
					notes: []string{"mEvict+mReload observations (first steps, SGX): " + strings.Join(trace, " ")},
					acc:   acc,
				}, nil
			},
			func() (any, error) {
				sct := machine.ConfigSCT()
				sct.Seed = o.Seed + 162
				sct.NoiseInterval = 30000
				acc, n, err := rsaAttack(machine.NewSystem(sct), 0, o.ExpBits, o.Seed+163, 0.01, 0.01)
				if err != nil {
					return nil, err
				}
				return &fig16Partial{
					row: []string{"SCT", "L0", fmt.Sprintf("%d", n), pct(acc)},
					acc: acc,
				}, nil
			},
		},
		Merge: func(parts []any) (*Result, error) {
			sgx, sct := parts[0].(*fig16Partial), parts[1].(*fig16Partial)
			r := &Result{
				ID:     "fig16",
				Title:  "RSA square-and-multiply exponent recovery (libgcrypt pattern)",
				Header: []string{"config", "tree level", "ops observed", "exponent bit accuracy"},
				Rows:   [][]string{sgx.row, sct.row},
				Notes:  sgx.notes,
			}
			r.PaperClaim = "91.2% exponent recovery in SGX enclave; 95.1% on simulated SCT"
			r.Measured = fmt.Sprintf("SGX %s, SCT %s", pct(sgx.acc), pct(sct.acc))
			return r, nil
		},
	}
}

// SpecFig17 reproduces the mbedTLS private-key-loading attack: recovering the
// shift/sub operation trace of the modular inversion in SGX.
// One key load under one dual monitor, one trial.
func SpecFig17(o Options) *Spec {
	return single("fig17", func() (*Result, error) { return fig17(o) })
}

func fig17(o Options) (*Result, error) {
	o = o.withDefaults()
	dp := machine.ConfigSGX()
	dp.Seed = o.Seed + 17
	dp.NoiseInterval = 9000
	sys := machine.NewSystem(dp)
	attacker := core.NewAttacker(sys.System, sys.Ctrl, 0, true)
	frames, err := attacker.PlaceVictimPages(1, 2, 1)
	if err != nil {
		return nil, err
	}
	vp := victim.NewProc(sys.System, 1)
	kv := &victim.KeyLoadVictim{Proc: vp, ShiftPage: frames[0], SubPage: frames[1]}
	dm, err := attacker.NewDualMonitor(kv.ShiftPage, kv.SubPage, 1)
	if err != nil {
		return nil, err
	}
	rng := arch.NewRNG(o.Seed ^ 0x17)
	p := mpi.RandomPrime(rng, o.PrimeBits)
	q := mpi.RandomPrime(rng, o.PrimeBits)
	var ops []victim.Op
	iv := &victim.Interleave{
		Before: dm.Evict,
		After: func() {
			if dm.Classify() {
				ops = append(ops, victim.OpShift)
			} else {
				ops = append(ops, victim.OpSub)
			}
		},
	}
	iv = victim.Jitter(iv, arch.NewRNG(o.Seed^0x17e9), 0.04, 0.02)
	_, oracleOps, err := kv.LoadKey(p, q, mpi.New(65537), iv)
	if err != nil {
		return nil, err
	}
	acc := reconstruct.AlignedOpAccuracy(ops, oracleOps)
	r := &Result{
		ID:     "fig17",
		Title:  "mbedTLS key-loading shift/sub trace recovery (SGX, tree L1)",
		Header: []string{"primes", "operations", "trace accuracy", "spy threshold (shift mon)"},
		Rows: [][]string{{
			fmt.Sprintf("2 x %d-bit", o.PrimeBits),
			fmt.Sprintf("%d", len(oracleOps)),
			pct(acc),
			fmt.Sprintf("%d cycles", dm.MonA.Threshold),
		}},
	}
	r.PaperClaim = "90.7% accuracy detecting Shift and Sub accesses (600-cycle leaf-hit threshold)"
	r.Measured = fmt.Sprintf("%s over %d operations", pct(acc), len(oracleOps))
	return r, nil
}
