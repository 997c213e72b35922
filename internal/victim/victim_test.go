package victim

import (
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/cache"
	"metaleak/internal/crypto"
	"metaleak/internal/ctr"
	"metaleak/internal/dram"
	"metaleak/internal/itree"
	"metaleak/internal/jpeg"
	"metaleak/internal/mpi"
	"metaleak/internal/secmem"
	"metaleak/internal/sim"
)

func newSys(t *testing.T) *sim.System {
	t.Helper()
	engCfg := crypto.Config{HashLatency: 12}
	mc := secmem.New(secmem.Config{
		DRAM:          dram.DefaultConfig(),
		Meta:          cache.Config{Name: "meta", SizeBytes: 256 * 1024, Ways: 8, HitLatency: 2},
		Engine:        engCfg,
		QueueDelay:    10,
		TreeStepDelay: 30,
	}, ctr.NewSC(ctr.SCConfig{}), itree.NewVTree(itree.VTreeConfig{
		Name: "SCT", Arities: []int{32, 16, 16}, MinorBits: 7, CounterBlocks: 1 << 14,
	}, crypto.New(engCfg)))
	return sim.New(sim.Config{
		Cores:       2,
		L1:          cache.Config{Name: "L1", SizeBytes: 32 * 1024, Ways: 8, HitLatency: 1},
		L2:          cache.Config{Name: "L2", SizeBytes: 1 << 20, Ways: 4, HitLatency: 10},
		L3:          cache.Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, HitLatency: 29},
		SecurePages: 1 << 14,
		Seed:        3,
	}, mc)
}

func TestJPEGVictimTraceMatchesEncoder(t *testing.T) {
	sys := newSys(t)
	jv := NewJPEGVictim(NewProc(sys, 0))
	im, _ := jpeg.Synthetic(jpeg.PatternCircle, 24, 24)
	res, tr, err := jv.Encode(im, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Trace length: 63 AC coefficients per block.
	want := len(res.Blocks) * 63
	if len(tr.NonZero) != want {
		t.Fatalf("trace length %d want %d", len(tr.NonZero), want)
	}
	// Trace must agree with the quantized blocks.
	idx := 0
	for _, blk := range res.Blocks {
		for k := 1; k < 64; k++ {
			if tr.NonZero[idx] != (blk[jpeg.NaturalOrder(k)] != 0) {
				t.Fatalf("trace disagrees with coefficients at %d", idx)
			}
			idx++
		}
	}
}

func TestJPEGVictimInterleaveBalanced(t *testing.T) {
	sys := newSys(t)
	jv := NewJPEGVictim(NewProc(sys, 0))
	im, _ := jpeg.Synthetic(jpeg.PatternStripes, 16, 16)
	var before, after int
	iv := &Interleave{
		Before: func() { before++ },
		After:  func() { after++ },
	}
	_, tr, err := jv.Encode(im, iv)
	if err != nil {
		t.Fatal(err)
	}
	if before != after || before != len(tr.NonZero) {
		t.Fatalf("interleave before=%d after=%d trace=%d", before, after, len(tr.NonZero))
	}
}

func TestJPEGVictimTouchesReachController(t *testing.T) {
	sys := newSys(t)
	jv := NewJPEGVictim(NewProc(sys, 0))
	im, _ := jpeg.Synthetic(jpeg.PatternChecker, 16, 16)
	readsBefore := sys.MC().Stats().Reads
	if _, _, err := jv.Encode(im, nil); err != nil {
		t.Fatal(err)
	}
	if sys.MC().Stats().Reads == readsBefore {
		t.Fatal("victim accesses never reached the memory controller")
	}
}

func TestJPEGVictimWriteRMode(t *testing.T) {
	sys := newSys(t)
	jv := NewJPEGVictim(NewProc(sys, 0))
	jv.WriteR = true
	im, _ := jpeg.Synthetic(jpeg.PatternCircle, 16, 16)
	writesBefore := sys.MC().Stats().Writes
	_, tr, err := jv.Encode(im, nil)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, nz := range tr.NonZero {
		if !nz {
			zeros++
		}
	}
	if got := sys.MC().Stats().Writes - writesBefore; got < uint64(zeros) {
		t.Fatalf("only %d MC writes for %d zero coefficients", got, zeros)
	}
}

func TestRSAVictimComputesAndTraces(t *testing.T) {
	sys := newSys(t)
	rv := NewRSAVictim(NewProc(sys, 0))
	base, exp := mpi.New(7), mpi.FromHex("b5")
	m := mpi.FromHex("1fffffffffffffff")
	got, trace := rv.ModExp(base, exp, m, nil)
	if got.Cmp(mpi.ModExp(base, exp, m, nil)) != 0 {
		t.Fatal("victim result differs from reference")
	}
	// Trace structure: squares = bit length, multiplies = popcount.
	sq, mul := 0, 0
	for _, op := range trace {
		switch op {
		case OpSquare:
			sq++
		case OpMultiply:
			mul++
		default:
			t.Fatalf("unexpected op %c", op)
		}
	}
	if sq != exp.BitLen() {
		t.Fatalf("squares %d want %d", sq, exp.BitLen())
	}
	wantMul := 0
	for i := 0; i < exp.BitLen(); i++ {
		if exp.Bit(i) == 1 {
			wantMul++
		}
	}
	if mul != wantMul {
		t.Fatalf("multiplies %d want %d", mul, wantMul)
	}
}

func TestKeyLoadVictimComputesD(t *testing.T) {
	sys := newSys(t)
	kv := NewKeyLoadVictim(NewProc(sys, 0))
	rng := arch.NewRNG(17)
	p := mpi.RandomPrime(rng, 64)
	q := mpi.RandomPrime(rng, 64)
	e := mpi.New(65537)
	d, trace, err := kv.LoadKey(p, q, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	phi := p.Sub(mpi.New(1)).Mul(q.Sub(mpi.New(1)))
	if e.Mul(d).Mod(phi).Cmp(mpi.New(1)) != 0 {
		t.Fatal("victim produced wrong private exponent")
	}
	shifts, subs := 0, 0
	for _, op := range trace {
		switch op {
		case OpShift:
			shifts++
		case OpSub:
			subs++
		}
	}
	if shifts == 0 || subs == 0 {
		t.Fatalf("degenerate trace: %d shifts, %d subs", shifts, subs)
	}
}

func TestVictimPagesDistinct(t *testing.T) {
	sys := newSys(t)
	jv := NewJPEGVictim(NewProc(sys, 0))
	if jv.RPage == jv.NbitsPage {
		t.Fatal("r and nbits share a page")
	}
	rv := NewRSAVictim(NewProc(sys, 0))
	if rv.SqrPage == rv.MulPage {
		t.Fatal("sqr and mul share a page")
	}
}

func TestJitterPassesThroughAtZero(t *testing.T) {
	before, after := 0, 0
	iv := Jitter(&Interleave{
		Before: func() { before++ },
		After:  func() { after++ },
	}, arch.NewRNG(1), 0, 0)
	for i := 0; i < 10; i++ {
		iv.before()
		iv.after()
	}
	if before != 10 || after != 10 {
		t.Fatalf("zero jitter altered counts: %d/%d", before, after)
	}
}

func TestJitterSkipsAndDoubles(t *testing.T) {
	before, after := 0, 0
	iv := Jitter(&Interleave{
		Before: func() { before++ },
		After:  func() { after++ },
	}, arch.NewRNG(2), 0.3, 0.2)
	for i := 0; i < 500; i++ {
		iv.before()
		iv.after()
	}
	if after >= before {
		t.Fatalf("skips did not reduce observed events: before=%d after=%d", before, after)
	}
	if before <= 500 {
		t.Fatalf("doubles did not add spurious windows: before=%d", before)
	}
}

func TestJitterNil(t *testing.T) {
	if Jitter(nil, arch.NewRNG(1), 0.5, 0.5) != nil {
		t.Fatal("nil interleave should stay nil")
	}
}
