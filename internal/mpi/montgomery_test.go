package mpi

import (
	"math/big"
	"testing"

	"metaleak/internal/arch"
)

func TestMontgomeryContextConstants(t *testing.T) {
	m := FromHex("c353930b3361f2a1d7fba01d4b8e1a4f") // odd
	ctx := newMontCtx(m)
	// mInv0: m[0] * (-mInv0) ≡ 1 (mod 2^32)
	if m.abs[0]*(-ctx.mInv0) != 1 {
		t.Fatalf("mInv0 wrong: %#x", ctx.mInv0)
	}
	// one == R mod m
	want := New(1).Shl(uint(32 * ctx.k)).Mod(m)
	if ctx.one.Cmp(want) != 0 {
		t.Fatal("R mod m wrong")
	}
}

func TestMontgomeryRoundTrip(t *testing.T) {
	rng := arch.NewRNG(21)
	for i := 0; i < 40; i++ {
		m := Random(rng, 96+i*17)
		if !m.IsOdd() {
			m = m.Add(New(1))
		}
		ctx := newMontCtx(m)
		a := Random(rng, m.BitLen()-1)
		if got := ctx.fromMont(ctx.toMont(a)); got.Cmp(a.Mod(m)) != 0 {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestMontgomeryMulAgainstBig(t *testing.T) {
	rng := arch.NewRNG(22)
	for i := 0; i < 40; i++ {
		m := Random(rng, 128+i*13)
		if !m.IsOdd() {
			m = m.Add(New(1))
		}
		ctx := newMontCtx(m)
		a := Random(rng, m.BitLen()-1)
		b := Random(rng, m.BitLen()-2)
		got := ctx.fromMont(ctx.mul(ctx.toMont(a), ctx.toMont(b)))
		want := new(big.Int).Mul(toBig(a), toBig(b))
		want.Mod(want, toBig(m))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("montgomery mul mismatch at %d", i)
		}
	}
}

func TestModExpMontMatchesModExp(t *testing.T) {
	rng := arch.NewRNG(23)
	for i := 0; i < 25; i++ {
		m := Random(rng, 192)
		if !m.IsOdd() {
			m = m.Add(New(1))
		}
		base := Random(rng, 160)
		exp := Random(rng, 96)
		if ModExpMont(base, exp, m, nil).Cmp(ModExp(base, exp, m, nil)) != 0 {
			t.Fatalf("ModExpMont disagrees at %d", i)
		}
	}
}

func TestModExpLadderMatchesModExp(t *testing.T) {
	rng := arch.NewRNG(24)
	for i := 0; i < 25; i++ {
		m := Random(rng, 192)
		if !m.IsOdd() {
			m = m.Add(New(1))
		}
		base := Random(rng, 160)
		exp := Random(rng, 96)
		if ModExpLadder(base, exp, m, nil).Cmp(ModExp(base, exp, m, nil)) != 0 {
			t.Fatalf("ModExpLadder disagrees at %d", i)
		}
	}
}

func TestLadderTraceIsExponentIndependent(t *testing.T) {
	// The countermeasure's defining property: identical hook traces for
	// different exponents of the same length.
	traceOf := func(exp Int) string {
		var tr []byte
		h := &Hooks{
			Square:   func() { tr = append(tr, 'S') },
			Multiply: func() { tr = append(tr, 'M') },
		}
		ModExpLadder(New(3), exp, FromHex("ffffffffffffffc5"), h)
		return string(tr)
	}
	t1 := traceOf(FromHex("8000000000000000")) // 1 then 63 zeros
	t2 := traceOf(FromHex("ffffffffffffffff")) // all ones
	if t1 != t2 {
		t.Fatalf("ladder trace depends on exponent:\n%s\n%s", t1, t2)
	}
	// Whereas square-and-multiply traces differ.
	s1, s2 := "", ""
	h1 := &Hooks{Square: func() { s1 += "S" }, Multiply: func() { s1 += "M" }}
	h2 := &Hooks{Square: func() { s2 += "S" }, Multiply: func() { s2 += "M" }}
	ModExp(New(3), FromHex("8000000000000000"), FromHex("ffffffffffffffc5"), h1)
	ModExp(New(3), FromHex("ffffffffffffffff"), FromHex("ffffffffffffffc5"), h2)
	if s1 == s2 {
		t.Fatal("square-and-multiply traces unexpectedly identical")
	}
}

func TestMontgomeryEvenModulusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on even modulus")
		}
	}()
	newMontCtx(New(100))
}

// ModExpMont computes base^exp mod m (odd m) with Montgomery
// multiplication and ModExp's left-to-right square-and-multiply
// schedule: the reference that checks the Montgomery machinery
// ModExpLadder runs on against ModExp.
func ModExpMont(base, exp, m Int, h *Hooks) Int {
	ctx := newMontCtx(m)
	r := ctx.one
	b := ctx.toMont(base)
	for i := exp.BitLen() - 1; i >= 0; i-- {
		h.square()
		r = ctx.mul(r, r)
		if exp.Bit(i) == 1 {
			h.multiply()
			r = ctx.mul(r, b)
		}
	}
	return ctx.fromMont(r)
}
