package mpi

// Montgomery arithmetic: the multiplication strategy production
// bignum libraries (including later libgcrypt versions) use for modular
// exponentiation. Functionally equivalent to the plain square-and-multiply
// path — property tests assert agreement — but it also powers the
// Montgomery-ladder exponentiation, the classic *software* countermeasure
// against call-sequence leaks like the one MetaLeak reads (§VIII-B1):
// every ladder step performs exactly one multiply and one square
// regardless of the exponent bit.

// montCtx caches the per-modulus Montgomery constants for R = 2^(32k).
type montCtx struct {
	m     Int
	k     int    // limbs in m
	mInv0 uint32 // -m^{-1} mod 2^32
	r2    Int    // R^2 mod m, for conversion into the domain
	one   Int    // R mod m (the Montgomery representation of 1)
}

// newMontCtx prepares constants for an odd modulus. It panics on an even
// or zero modulus (a caller bug: RSA moduli are odd).
func newMontCtx(m Int) *montCtx {
	if m.IsZero() || !m.IsOdd() || m.Sign() < 0 { //metalint:leaky access-sequence operand-dependent step in Montgomery arithmetic
		panic("mpi: Montgomery context requires a positive odd modulus")
	}
	k := len(m.abs)
	ctx := &montCtx{m: m, k: k}
	// -m^{-1} mod 2^32 by Newton-Hensel lifting: x_{n+1} = x_n(2 - m0*x_n).
	m0 := m.abs[0]
	x := m0 // m0 odd => x ≡ m0^{-1} (mod 2^3) after start; lift doubles precision
	for i := 0; i < 5; i++ {
		x *= 2 - m0*x
	}
	ctx.mInv0 = -x
	// R mod m and R^2 mod m.
	r := New(1).Shl(uint(32 * k)).Mod(m)
	ctx.one = r
	ctx.r2 = r.Mul(r).Mod(m)
	return ctx
}

// redc computes t * R^{-1} mod m for t < m*R (the Montgomery reduction),
// using the word-by-word algorithm.
func (ctx *montCtx) redc(t nat) Int {
	// Work buffer of 2k+1 limbs.
	buf := make(nat, 2*ctx.k+1) //metalint:leaky addr workspace sized by the modulus
	copy(buf, t)
	for i := 0; i < ctx.k; i++ { //metalint:leaky trip-count trip count follows operand bit/limb structure
		u := buf[i] * ctx.mInv0
		// buf += u * m << (32*i)
		var carry uint64
		for j := 0; j < ctx.k; j++ { //metalint:leaky trip-count trip count follows operand bit/limb structure
			s := uint64(buf[i+j]) + uint64(u)*uint64(ctx.m.abs[j]) + carry
			buf[i+j] = uint32(s)
			carry = s >> 32
		}
		for j := i + ctx.k; carry > 0 && j < len(buf); j++ { //metalint:leaky trip-count trip count follows operand bit/limb structure
			s := uint64(buf[j]) + carry //metalint:leaky addr limb addressing follows operand size
			buf[j] = uint32(s)          //metalint:leaky addr limb addressing follows operand size
			carry = s >> 32
		}
	}
	res := Int{abs: nat(buf[ctx.k:]).norm()}
	if res.Cmp(ctx.m) >= 0 {
		res = res.Sub(ctx.m)
	}
	return res
}

// mul multiplies two values in the Montgomery domain.
func (ctx *montCtx) mul(a, b Int) Int {
	prod := a.abs.mul(b.abs)
	return ctx.redc(prod)
}

// toMont converts into the Montgomery domain (a*R mod m).
func (ctx *montCtx) toMont(a Int) Int { return ctx.mul(a.Mod(ctx.m), ctx.r2) }

// fromMont converts back (a*R^{-1} mod m).
func (ctx *montCtx) fromMont(a Int) Int { return ctx.redc(append(nat(nil), a.abs...)) } //metalint:leaky access-sequence limb copy of a secret operand

// ModExpMont computes base^exp mod m (odd m) with Montgomery
// multiplication and the same left-to-right square-and-multiply schedule
// as ModExp — and therefore the same leak. It exists to validate the
// Montgomery machinery and to contrast with ModExpLadder.
//
//metalint:secret exp -- same exponent secret as ModExp, on the Montgomery path
func ModExpMont(base, exp, m Int, h *Hooks) Int {
	ctx := newMontCtx(m)
	r := ctx.one
	b := ctx.toMont(base)
	for i := exp.BitLen() - 1; i >= 0; i-- { //metalint:leaky trip-count one iteration per exponent bit on the Montgomery path
		h.square()
		r = ctx.mul(r, r)
		if exp.Bit(i) == 1 { //metalint:leaky access-sequence same set-bit multiply leak as ModExp, in Montgomery form
			h.multiply()
			r = ctx.mul(r, b)
		}
	}
	return ctx.fromMont(r)
}

// ModExpLadder computes base^exp mod m (odd m) with the Montgomery
// ladder: each exponent bit performs exactly one multiply and one square,
// in the same order, regardless of the bit's value. The hook trace is
// therefore independent of the exponent — the software countermeasure
// whose effect the defladder experiment measures.
//
//metalint:secret exp -- the exponent stays secret on the ladder; its residual leaks are balanced branches
func ModExpLadder(base, exp, m Int, h *Hooks) Int {
	ctx := newMontCtx(m)
	r0 := ctx.one
	r1 := ctx.toMont(base)
	for i := exp.BitLen() - 1; i >= 0; i-- { //metalint:leaky trip-count ladder runs one iteration per exponent bit; trip count still leaks the bit-length
		if exp.Bit(i) == 0 { //metalint:leaky access-sequence balanced ladder branch: both arms multiply+square, the bit only swaps operands
			h.multiply()
			r1 = ctx.mul(r0, r1)
			h.square()
			r0 = ctx.mul(r0, r0)
		} else {
			h.multiply()
			r0 = ctx.mul(r0, r1)
			h.square()
			r1 = ctx.mul(r1, r1)
		}
	}
	return ctx.fromMont(r0)
}
