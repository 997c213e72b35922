package mpi

import (
	"fmt"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
)

// toBig converts an Int to math/big for cross-checking.
func toBig(x Int) *big.Int {
	b := new(big.Int).SetBytes(x.Bytes())
	if x.Sign() < 0 {
		b.Neg(b)
	}
	return b
}

// fromRaw builds a positive Int from arbitrary bytes.
func fromRaw(b []byte) Int { return FromBytes(b) }

func TestBasicValues(t *testing.T) {
	if New(0).Sign() != 0 || !New(0).IsZero() {
		t.Fatal("zero broken")
	}
	x := New(0xdeadbeefcafe)
	if x.Uint64() != 0xdeadbeefcafe {
		t.Fatalf("Uint64 = %x", x.Uint64())
	}
	if x.String() != "deadbeefcafe" {
		t.Fatalf("String = %s", x.String())
	}
	if FromHex("deadbeefcafe").Cmp(x) != 0 {
		t.Fatal("FromHex mismatch")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		x := fromRaw(raw)
		return FromBytes(x.Bytes()).Cmp(x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddSubAgainstBig(t *testing.T) {
	f := func(a, b []byte, an, bn bool) bool {
		x, y := fromRaw(a), fromRaw(b)
		if an {
			x = x.Neg()
		}
		if bn {
			y = y.Neg()
		}
		sum := toBig(x.Add(y))
		diff := toBig(x.Sub(y))
		bx, by := toBig(x), toBig(y)
		return sum.Cmp(new(big.Int).Add(bx, by)) == 0 &&
			diff.Cmp(new(big.Int).Sub(bx, by)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulAgainstBig(t *testing.T) {
	f := func(a, b []byte) bool {
		x, y := fromRaw(a), fromRaw(b)
		return toBig(x.Mul(y)).Cmp(new(big.Int).Mul(toBig(x), toBig(y))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKaratsubaMatchesBasecase(t *testing.T) {
	rng := arch.NewRNG(7)
	for i := 0; i < 40; i++ {
		x := Random(rng, 512+i*37)
		y := Random(rng, 700+i*11)
		kara := x.abs.mul(y.abs)
		base := x.abs.mulBase(y.abs)
		if kara.cmp(base) != 0 {
			t.Fatalf("karatsuba != basecase at iteration %d", i)
		}
	}
}

func TestSqrMatchesMul(t *testing.T) {
	rng := arch.NewRNG(8)
	for i := 1; i < 40; i++ {
		x := Random(rng, i*53)
		if x.Sqr().Cmp(x.Mul(x)) != 0 {
			t.Fatalf("sqr != mul for %d bits", i*53)
		}
	}
}

func TestQuickShiftAgainstBig(t *testing.T) {
	f := func(a []byte, s uint8) bool {
		x := fromRaw(a)
		sh := uint(s % 130)
		l := toBig(x.Shl(sh)).Cmp(new(big.Int).Lsh(toBig(x), sh)) == 0
		r := toBig(x.Shr(sh)).Cmp(new(big.Int).Rsh(toBig(x), sh)) == 0
		return l && r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDivModAgainstBig(t *testing.T) {
	f := func(a, b []byte) bool {
		x, y := fromRaw(a), fromRaw(b)
		if y.IsZero() {
			return true
		}
		q, r := x.QuoRem(y)
		bq, br := new(big.Int).QuoRem(toBig(x), toBig(y), new(big.Int))
		return toBig(q).Cmp(bq) == 0 && toBig(r).Cmp(br) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestDivModLargeOperands(t *testing.T) {
	rng := arch.NewRNG(99)
	for i := 0; i < 60; i++ {
		x := Random(rng, 1024+i*13)
		y := Random(rng, 512+i*7)
		q, r := x.QuoRem(y)
		// x == q*y + r and 0 <= r < y
		if q.Mul(y).Add(r).Cmp(x) != 0 {
			t.Fatalf("q*y+r != x at %d", i)
		}
		if r.Sign() < 0 || r.Cmp(y) >= 0 {
			t.Fatalf("remainder out of range at %d", i)
		}
	}
}

func TestQuickModAgainstBig(t *testing.T) {
	f := func(a, b []byte, an bool) bool {
		x, y := fromRaw(a), fromRaw(b)
		if an {
			x = x.Neg()
		}
		if y.IsZero() {
			return true
		}
		return toBig(x.Mod(y)).Cmp(new(big.Int).Mod(toBig(x), toBig(y))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestModExpAgainstBig(t *testing.T) {
	rng := arch.NewRNG(3)
	for i := 0; i < 25; i++ {
		base := Random(rng, 256)
		exp := Random(rng, 128)
		m := Random(rng, 256)
		if !m.IsOdd() {
			m = m.Add(New(1))
		}
		got := ModExp(base, exp, m, nil)
		want := new(big.Int).Exp(toBig(base), toBig(exp), toBig(m))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("modexp mismatch at %d", i)
		}
	}
}

func TestModExpHookSequenceEncodesExponent(t *testing.T) {
	// The hook trace is exactly the square-and-multiply leakage: one S per
	// bit, an M after the S of every 1-bit.
	var trace []byte
	h := &Hooks{
		Square:   func() { trace = append(trace, 'S') },
		Multiply: func() { trace = append(trace, 'M') },
	}
	exp := FromHex("b5") // 10110101
	ModExp(New(3), exp, FromHex("1fffffffffffffff"), h)
	want := ""
	for i := exp.BitLen() - 1; i >= 0; i-- {
		want += "S"
		if exp.Bit(i) == 1 {
			want += "M"
		}
	}
	if string(trace) != want {
		t.Fatalf("trace %s want %s", trace, want)
	}
}

func TestModExpEdgeCases(t *testing.T) {
	// exp = 0 -> 1 mod m (and 0 when m == 1).
	if got := ModExp(New(5), New(0), New(7), nil); got.Cmp(New(1)) != 0 {
		t.Fatalf("5^0 mod 7 = %s", got)
	}
	if got := ModExp(New(5), New(0), New(1), nil); !got.IsZero() {
		t.Fatalf("5^0 mod 1 = %s", got)
	}
	if got := ModExp(New(0), New(9), New(7), nil); !got.IsZero() {
		t.Fatalf("0^9 mod 7 = %s", got)
	}
	if got := ModExp(New(2), New(10), New(1), nil); !got.IsZero() {
		t.Fatalf("2^10 mod 1 = %s", got)
	}
}

func TestModInverseAgainstBig(t *testing.T) {
	rng := arch.NewRNG(4)
	for i := 0; i < 60; i++ {
		m := Random(rng, 192) // even and odd moduli both exercised
		a := Random(rng, 160)
		inv, ok := ModInverse(a, m, nil)
		want := new(big.Int).ModInverse(toBig(a), toBig(m))
		if (want == nil) != !ok {
			t.Fatalf("existence mismatch at %d: ok=%v want=%v", i, ok, want)
		}
		if ok && toBig(inv).Cmp(want) != 0 {
			t.Fatalf("inverse mismatch at %d", i)
		}
	}
}

func TestModInverseProperty(t *testing.T) {
	rng := arch.NewRNG(5)
	for i := 0; i < 30; i++ {
		m := RandomPrime(rng, 96)
		a := Random(rng, 80)
		inv, ok := ModInverse(a, m, nil)
		if !ok {
			t.Fatalf("no inverse mod prime at %d", i)
		}
		if a.Mul(inv).Mod(m).Cmp(New(1)) != 0 {
			t.Fatalf("a*inv != 1 mod m at %d", i)
		}
	}
}

func TestModInverseHooksFire(t *testing.T) {
	shifts, subs := 0, 0
	h := &Hooks{Shift: func() { shifts++ }, Sub: func() { subs++ }}
	m := FromHex("c353930b3361f2a1d7fba01d4b8e1a4f") // odd
	a := FromHex("1234567890abcdef")
	if _, ok := ModInverse(a, m, h); !ok {
		t.Skip("no inverse for fixture")
	}
	if shifts == 0 || subs == 0 {
		t.Fatalf("hooks did not fire: shifts=%d subs=%d", shifts, subs)
	}
}

func TestPrimality(t *testing.T) {
	rng := arch.NewRNG(11)
	known := []struct {
		v     string
		prime bool
	}{
		{"2", true}, {"3", true}, {"4", false}, {"11", true},
		{"fffffffb", true},  // 4294967291
		{"fffffffd", false}, // 4294967293 = 9241*464773
		{"100000000000000000000000000000000", false},
	}
	for _, k := range known {
		if got := IsProbablePrime(FromHex(k.v), 16, rng); got != k.prime {
			t.Fatalf("IsProbablePrime(%s) = %v", k.v, got)
		}
	}
}

func TestRandomPrimeVerifiesWithBig(t *testing.T) {
	rng := arch.NewRNG(12)
	p := RandomPrime(rng, 128)
	if !toBig(p).ProbablyPrime(20) {
		t.Fatalf("RandomPrime produced composite %s", p)
	}
	if p.BitLen() != 128 {
		t.Fatalf("prime has %d bits", p.BitLen())
	}
}

func TestRandomBitLengthExact(t *testing.T) {
	rng := arch.NewRNG(13)
	for bits := 1; bits < 200; bits += 17 {
		if got := Random(rng, bits).BitLen(); got != bits {
			t.Fatalf("Random(%d) has %d bits", bits, got)
		}
	}
}

func TestModInverseEvenModulusKeyLoad(t *testing.T) {
	// The mbedTLS pattern: d = e^-1 mod (p-1)(q-1), phi even.
	rng := arch.NewRNG(6)
	p := RandomPrime(rng, 96)
	q := RandomPrime(rng, 96)
	e := New(65537)
	phi := p.Sub(New(1)).Mul(q.Sub(New(1)))
	d, ok := ModInverse(e, phi, nil)
	if !ok {
		t.Fatal("no inverse for e mod phi")
	}
	if e.Mul(d).Mod(phi).Cmp(New(1)) != 0 {
		t.Fatal("e*d != 1 mod phi")
	}
	want := new(big.Int).ModInverse(toBig(e), toBig(phi))
	if toBig(d).Cmp(want) != 0 {
		t.Fatal("disagrees with math/big")
	}
}

func TestDivisionByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).QuoRem(New(0))
}

func TestDecimalRoundTrip(t *testing.T) {
	cases := []string{"0", "1", "-1", "999999999", "1000000000",
		"123456789012345678901234567890", "-98765432109876543210"}
	for _, s := range cases {
		x, err := FromDecimal(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got := x.Decimal(); got != s {
			t.Fatalf("round trip %s -> %s", s, got)
		}
	}
	if _, err := FromDecimal("12a3"); err == nil {
		t.Fatal("bad digit accepted")
	}
	if _, err := FromDecimal(""); err == nil {
		t.Fatal("empty string accepted")
	}
}

func TestQuickDecimalAgainstBig(t *testing.T) {
	f := func(raw []byte, neg bool) bool {
		x := fromRaw(raw)
		if neg {
			x = x.Neg()
		}
		return x.Decimal() == toBig(x).String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FromBytes interprets big-endian bytes as an unsigned integer: the
// inverse the tests check Int.Bytes against and build fuzz operands
// with.
func FromBytes(b []byte) Int {
	var x nat
	for _, c := range b {
		x = x.shl(8).add(nat{uint32(c)}.norm())
	}
	return Int{abs: x}
}

// FromDecimal parses a base-10 integer (optional leading '-'): the
// inverse the tests check Int.Decimal against.
func FromDecimal(s string) (Int, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if s == "" {
		return Int{}, fmt.Errorf("mpi: empty decimal string")
	}
	x := New(0)
	ten := New(10)
	for _, c := range s {
		if c < '0' || c > '9' {
			return Int{}, fmt.Errorf("mpi: bad decimal digit %q", c)
		}
		x = x.Mul(ten).Add(New(uint64(c - '0')))
	}
	if neg {
		x = x.Neg()
	}
	return x, nil
}
