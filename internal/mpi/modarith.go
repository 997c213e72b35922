package mpi

import "metaleak/internal/arch"

// Hooks are instrumentation points that fire when the secret-dependent
// arithmetic routines of the paper's victims execute. The victim layer
// maps each hook to a touch of that routine's simulated code page; nil
// hooks are skipped. This mirrors how libgcrypt's square/multiply and
// mbedTLS's shift/subtract live in distinct pages (§VIII-B).
type Hooks struct {
	Square   func() // _gcry_mpih_sqr_n_basecase analogue
	Multiply func() // _gcry_mpih_mul_karatsuba_case analogue
	Shift    func() // mbedtls_mpi_shift_r analogue
	Sub      func() // mbedtls_mpi_sub_mpi analogue
}

func (h *Hooks) square() {
	if h != nil && h.Square != nil {
		h.Square()
	}
}
func (h *Hooks) multiply() {
	if h != nil && h.Multiply != nil {
		h.Multiply()
	}
}
func (h *Hooks) shift() {
	if h != nil && h.Shift != nil {
		h.Shift()
	}
}
func (h *Hooks) subtract() {
	if h != nil && h.Sub != nil {
		h.Sub()
	}
}

// ModExp computes base^exp mod m by left-to-right square-and-multiply —
// the libgcrypt 1.5.2 algorithm of Listing 2: every exponent bit squares;
// every set bit additionally multiplies. Hooks fire per operation.
//
//metalint:secret exp -- the private exponent: the bit-sequence the paper's ctr channel recovers
func ModExp(base, exp, m Int, h *Hooks) Int {
	if m.IsZero() { //metalint:leaky access-sequence operand-dependent step in modular arithmetic
		panic("mpi: modulus is zero")
	}
	r := New(1)
	b := base.Mod(m)
	for i := exp.BitLen() - 1; i >= 0; i-- { //metalint:leaky trip-count one iteration per exponent bit: BitLen sets Listing 2's outer schedule
		h.square()
		r = r.Sqr().Mod(m)
		if exp.Bit(i) == 1 { //metalint:leaky access-sequence the flagship leak: a multiply happens only for set exponent bits (Listing 2; recovered by the ctr channel)
			h.multiply()
			r = r.Mul(b).Mod(m)
		}
	}
	// A zero exponent skips the loop entirely; 1 still needs reduction
	// for m == 1.
	return r.Mod(m)
}

// ModInverse computes x with a*x ≡ 1 (mod m) for gcd(a, m) = 1, by the
// full binary extended GCD (HAC Algorithm 14.61) — the modular-inversion
// pattern of mbedTLS private-key loading, built from right shifts and
// subtractions. The modulus may be even (as φ(n) is in RSA key loading)
// as long as a is then odd. Hooks fire per shift and per subtraction,
// producing the operation trace the Fig. 17 attack recovers. It returns
// ok=false when the inverse does not exist.
func ModInverse(a, m Int, h *Hooks) (Int, bool) {
	if m.IsZero() { //metalint:leaky access-sequence operand-dependent step in modular arithmetic
		panic("mpi: ModInverse with zero modulus")
	}
	if m.Cmp(New(1)) == 0 {
		// Everything is congruent mod 1; the inverse is 0 by convention
		// (matching math/big).
		return Int{}, true
	}
	a = a.Mod(m)
	if a.IsZero() { //metalint:leaky access-sequence operand-dependent step in modular arithmetic
		return Int{}, false
	}
	if !a.IsOdd() && !m.IsOdd() { //metalint:leaky access-sequence operand-dependent step in modular arithmetic
		return Int{}, false // gcd is even
	}
	x, y := a, m
	u, v := x, y
	bigA, bigB := New(1), New(0)
	bigC, bigD := New(0), New(1)
	// Invariants: A*x + B*y == u, C*x + D*y == v.
	for !u.IsZero() { //metalint:leaky trip-count trip count follows operand bit/limb structure
		for !u.IsOdd() { //metalint:leaky trip-count trip count follows operand bit/limb structure
			h.shift()
			u = u.Shr(1)
			if !bigA.IsOdd() && !bigB.IsOdd() { //metalint:leaky access-sequence operand-dependent step in modular arithmetic
				bigA, bigB = bigA.Shr(1), bigB.Shr(1)
			} else {
				bigA = bigA.Add(y).Shr(1)
				bigB = bigB.Sub(x).Shr(1)
			}
		}
		for !v.IsOdd() { //metalint:leaky trip-count trip count follows operand bit/limb structure
			h.shift()
			v = v.Shr(1)
			if !bigC.IsOdd() && !bigD.IsOdd() { //metalint:leaky access-sequence operand-dependent step in modular arithmetic
				bigC, bigD = bigC.Shr(1), bigD.Shr(1)
			} else {
				bigC = bigC.Add(y).Shr(1)
				bigD = bigD.Sub(x).Shr(1)
			}
		}
		if u.Cmp(v) >= 0 {
			h.subtract()
			u = u.Sub(v)
			bigA = bigA.Sub(bigC)
			bigB = bigB.Sub(bigD)
		} else {
			h.subtract()
			v = v.Sub(u)
			bigC = bigC.Sub(bigA)
			bigD = bigD.Sub(bigB)
		}
	}
	if v.Cmp(New(1)) != 0 {
		return Int{}, false
	}
	return bigC.Mod(m), true
}

// Random returns a uniformly random value with exactly the given bit
// length (top bit set), drawn from the deterministic generator.
func Random(rng *arch.RNG, bitLen int) Int {
	if bitLen <= 0 { //metalint:leaky access-sequence operand-dependent step in modular arithmetic
		return Int{}
	}
	limbs := (bitLen + 31) / 32
	x := make(nat, limbs) //metalint:leaky addr workspace sized by the modulus
	for i := range x {    //metalint:leaky trip-count trip count follows operand bit/limb structure
		x[i] = uint32(rng.Uint64()) //metalint:leaky addr limb addressing follows operand size
	}
	top := uint(bitLen-1) % 32
	x[limbs-1] &= (1 << (top + 1)) - 1 //metalint:leaky addr limb addressing follows operand size
	x[limbs-1] |= 1 << top             //metalint:leaky addr limb addressing follows operand size
	return Int{abs: x.norm()}
}

// IsProbablePrime runs n rounds of Miller-Rabin with deterministic
// pseudo-random bases.
func IsProbablePrime(p Int, rounds int, rng *arch.RNG) bool {
	if p.Cmp(New(4)) < 0 {
		return p.Cmp(New(2)) == 0 || p.Cmp(New(3)) == 0
	}
	if !p.IsOdd() { //metalint:leaky access-sequence operand-dependent step in modular arithmetic
		return false
	}
	// p - 1 = d * 2^s
	d := p.Sub(New(1))
	s := 0
	for !d.IsOdd() { //metalint:leaky trip-count trip count follows operand bit/limb structure
		d = d.Shr(1)
		s++
	}
	pm1 := p.Sub(New(1))
	for i := 0; i < rounds; i++ {
		a := Random(rng, p.BitLen()-1).Mod(p.Sub(New(3))).Add(New(2))
		x := ModExp(a, d, p, nil)
		if x.Cmp(New(1)) == 0 || x.Cmp(pm1) == 0 {
			continue
		}
		composite := true
		for r := 1; r < s; r++ {
			x = x.Sqr().Mod(p)
			if x.Cmp(pm1) == 0 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// RandomPrime generates a probable prime of the given bit length.
func RandomPrime(rng *arch.RNG, bitLen int) Int {
	for {
		cand := Random(rng, bitLen)
		if !cand.IsOdd() { //metalint:leaky access-sequence operand-dependent step in modular arithmetic
			cand = cand.Add(New(1))
		}
		if IsProbablePrime(cand, 12, rng) {
			return cand
		}
	}
}
