// Package mpi is a from-scratch multi-precision integer library in the
// style of libgcrypt's mpi layer: 32-bit limbs, basecase and Karatsuba
// multiplication, dedicated squaring, Knuth division, square-and-multiply
// modular exponentiation, and a binary extended-GCD modular inverse.
//
// It exists because the paper's cryptographic victims leak through *which
// arithmetic routine runs* (square vs. multiply in libgcrypt's RSA;
// shift vs. subtract in mbedTLS's key loading). The library therefore
// exposes Hooks that fire exactly when those routines execute, letting the
// victim layer pin each routine to its own simulated code page — the same
// page-granular leakage the paper exploits.
package mpi

import "math/bits"

// nat is a little-endian magnitude with no high zero limbs ("normalized").
type nat []uint32

// norm strips high zero limbs.
func (x nat) norm() nat {
	n := len(x)
	for n > 0 && x[n-1] == 0 { //metalint:leaky trip-count per-limb loop; trip count follows operand size
		n--
	}
	return x[:n]
}

func (x nat) isZero() bool { return len(x) == 0 }

// cmp compares magnitudes: -1, 0, +1.
func (x nat) cmp(y nat) int {
	if len(x) != len(y) { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		if len(x) < len(y) { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
			return -1
		}
		return 1
	}
	for i := len(x) - 1; i >= 0; i-- { //metalint:leaky trip-count per-limb loop; trip count follows operand size
		if x[i] != y[i] { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
			if x[i] < y[i] { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
				return -1
			}
			return 1
		}
	}
	return 0
}

// add returns x + y.
func (x nat) add(y nat) nat {
	if len(x) < len(y) { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		x, y = y, x
	}
	z := make(nat, len(x)+1) //metalint:leaky addr scratch sized by operand limb count
	var carry uint64
	for i := 0; i < len(x); i++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
		s := uint64(x[i]) + carry
		if i < len(y) { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
			s += uint64(y[i])
		}
		z[i] = uint32(s)
		carry = s >> 32
	}
	z[len(x)] = uint32(carry) //metalint:leaky addr limb access at an operand-dependent offset
	return z.norm()
}

// sub returns x - y; it panics if y > x (callers manage signs).
func (x nat) sub(y nat) nat {
	if x.cmp(y) < 0 {
		panic("mpi: nat underflow")
	}
	z := make(nat, len(x)) //metalint:leaky addr scratch sized by operand limb count
	var borrow uint64
	for i := 0; i < len(x); i++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
		d := uint64(x[i]) - borrow
		if i < len(y) { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
			d -= uint64(y[i])
		}
		z[i] = uint32(d)
		borrow = (d >> 32) & 1
	}
	return z.norm()
}

// shl returns x << s.
func (x nat) shl(s uint) nat {
	if x.isZero() { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		return nil
	}
	limbs, rem := s/32, s%32
	z := make(nat, len(x)+int(limbs)+1) //metalint:leaky addr scratch sized by operand limb count
	for i := len(x) - 1; i >= 0; i-- {  //metalint:leaky trip-count per-limb loop; trip count follows operand size
		v := uint64(x[i]) << rem              //metalint:leaky addr limb access at an operand-dependent offset
		z[uint(i)+limbs+1] |= uint32(v >> 32) //metalint:leaky addr limb access at an operand-dependent offset
		z[uint(i)+limbs] |= uint32(v)         //metalint:leaky addr limb access at an operand-dependent offset
	}
	return z.norm()
}

// shr returns x >> s.
func (x nat) shr(s uint) nat {
	limbs, rem := int(s/32), s%32
	if limbs >= len(x) { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		return nil
	}
	z := make(nat, len(x)-limbs) //metalint:leaky addr scratch sized by operand limb count
	for i := range z {           //metalint:leaky trip-count per-limb loop; trip count follows operand size
		v := uint64(x[i+limbs]) >> rem     //metalint:leaky addr limb access at an operand-dependent offset
		if rem > 0 && i+limbs+1 < len(x) { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
			v |= uint64(x[i+limbs+1]) << (32 - rem) //metalint:leaky addr limb access at an operand-dependent offset
		}
		z[i] = uint32(v) //metalint:leaky addr limb access at an operand-dependent offset
	}
	return z.norm()
}

// bitLen returns the magnitude's bit length.
func (x nat) bitLen() int {
	if x.isZero() { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		return 0
	}
	return 32*(len(x)-1) + bits.Len32(x[len(x)-1]) //metalint:leaky addr limb access at an operand-dependent offset
}

// bit returns bit i (0 = least significant).
func (x nat) bit(i int) uint {
	limb := i / 32
	if limb >= len(x) { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		return 0
	}
	return uint(x[limb]>>(i%32)) & 1 //metalint:leaky addr limb access at an operand-dependent offset
}

// mulBase is schoolbook multiplication — the analogue of libgcrypt's
// _gcry_mpih_mul basecase.
func (x nat) mulBase(y nat) nat {
	if x.isZero() || y.isZero() { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		return nil
	}
	z := make(nat, len(x)+len(y)) //metalint:leaky addr scratch sized by operand limb count
	for i := 0; i < len(x); i++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
		var carry uint64
		xi := uint64(x[i])
		for j := 0; j < len(y); j++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
			s := uint64(z[i+j]) + xi*uint64(y[j]) + carry
			z[i+j] = uint32(s)
			carry = s >> 32
		}
		z[i+len(y)] += uint32(carry) //metalint:leaky addr limb access at an operand-dependent offset
	}
	return z.norm()
}

// karatsubaThreshold is the limb count below which schoolbook wins.
const karatsubaThreshold = 16

// mul multiplies, dispatching to Karatsuba above the threshold — the
// analogue of _gcry_mpih_mul_karatsuba_case.
func (x nat) mul(y nat) nat {
	if len(x) < karatsubaThreshold || len(y) < karatsubaThreshold { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		return x.mulBase(y)
	}
	// Split at half of the shorter operand.
	k := len(x)
	if len(y) < k { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		k = len(y)
	}
	k /= 2
	x0, x1 := nat(x[:k]).norm(), nat(x[k:]).norm()
	y0, y1 := nat(y[:k]).norm(), nat(y[k:]).norm()
	z0 := x0.mul(y0)
	z2 := x1.mul(y1)
	// z1 = (x0+x1)(y0+y1) - z0 - z2
	z1 := x0.add(x1).mul(y0.add(y1)).sub(z0).sub(z2)
	return z0.add(z1.shl(uint(32 * k))).add(z2.shl(uint(64 * k)))
}

// sqrBase is dedicated schoolbook squaring, exploiting the symmetry of the
// partial products — the analogue of _gcry_mpih_sqr_n_basecase. It is the
// routine whose execution leaks exponent zero-bits in the RSA case study.
func (x nat) sqrBase() nat {
	if x.isZero() { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		return nil
	}
	n := len(x)
	z := make(nat, 2*n) //metalint:leaky addr scratch sized by operand limb count
	// Off-diagonal products, each counted once.
	for i := 0; i < n; i++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
		var carry uint64
		xi := uint64(x[i])
		for j := i + 1; j < n; j++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
			s := uint64(z[i+j]) + xi*uint64(x[j]) + carry
			z[i+j] = uint32(s)
			carry = s >> 32
		}
		z[i+n] += uint32(carry) //metalint:leaky addr limb access at an operand-dependent offset
	}
	// Double them.
	var carry uint64
	for i := 0; i < 2*n; i++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
		s := uint64(z[i])*2 + carry
		z[i] = uint32(s)
		carry = s >> 32
	}
	// Add the diagonal squares.
	carry = 0
	for i := 0; i < n; i++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
		sq := uint64(x[i]) * uint64(x[i])
		lo := uint64(z[2*i]) + (sq & 0xffffffff) + carry
		z[2*i] = uint32(lo)
		hi := uint64(z[2*i+1]) + (sq >> 32) + (lo >> 32)
		z[2*i+1] = uint32(hi)
		carry = hi >> 32
	}
	return z.norm()
}

// sqr squares, dispatching to mul via Karatsuba for large operands.
func (x nat) sqr() nat {
	if len(x) < karatsubaThreshold { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		return x.sqrBase()
	}
	return x.mul(x)
}

// divMod returns (q, r) with x = q*y + r, 0 <= r < y, by Knuth Algorithm D.
func (x nat) divMod(y nat) (nat, nat) {
	if y.isZero() { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		panic("mpi: division by zero")
	}
	if x.cmp(y) < 0 {
		return nil, append(nat(nil), x...).norm() //metalint:leaky access-sequence bulk limb copy of a secret operand
	}
	if len(y) == 1 { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
		q := make(nat, len(x)) //metalint:leaky addr scratch sized by operand limb count
		var rem uint64
		d := uint64(y[0])
		for i := len(x) - 1; i >= 0; i-- { //metalint:leaky trip-count per-limb loop; trip count follows operand size
			cur := rem<<32 | uint64(x[i]) //metalint:leaky addr limb access at an operand-dependent offset
			q[i] = uint32(cur / d)        //metalint:leaky addr limb access at an operand-dependent offset
			rem = cur % d
		}
		if rem == 0 { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
			return q.norm(), nil
		}
		return q.norm(), nat{uint32(rem)}
	}
	// Normalize so the divisor's top limb has its high bit set.
	shift := uint(bits.LeadingZeros32(y[len(y)-1])) //metalint:leaky addr limb access at an operand-dependent offset
	u := x.shl(shift)
	v := y.shl(shift)
	n := len(v)
	u = append(u, 0) // extra high limb for the algorithm
	m := len(u) - n - 1
	q := make(nat, m+1)       //metalint:leaky addr scratch sized by operand limb count
	vn1 := uint64(v[n-1])     //metalint:leaky addr limb access at an operand-dependent offset
	vn2 := uint64(v[n-2])     //metalint:leaky addr limb access at an operand-dependent offset
	for j := m; j >= 0; j-- { //metalint:leaky trip-count per-limb loop; trip count follows operand size
		ujn := uint64(u[j+n])             //metalint:leaky addr limb access at an operand-dependent offset
		cur := ujn<<32 | uint64(u[j+n-1]) //metalint:leaky addr limb access at an operand-dependent offset
		qhat := cur / vn1
		rhat := cur % vn1
		for qhat >= 1<<32 || qhat*vn2 > (rhat<<32|uint64(u[j+n-2])) { //metalint:leaky trip-count per-limb loop; trip count follows operand size
			qhat--
			rhat += vn1
			if rhat >= 1<<32 { //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
				break
			}
		}
		// u[j..j+n] -= qhat * v (multiply-and-subtract with signed borrow,
		// per Hacker's Delight divmnu).
		var borrow int64
		for i := 0; i < n; i++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
			p := qhat * uint64(v[i])
			t := int64(uint64(u[j+i])) - borrow - int64(p&0xffffffff) //metalint:leaky addr limb access at an operand-dependent offset
			u[j+i] = uint32(t)                                        //metalint:leaky addr limb access at an operand-dependent offset
			borrow = int64(p>>32) - (t >> 32)
		}
		t := int64(ujn) - borrow
		u[j+n] = uint32(t) //metalint:leaky addr limb access at an operand-dependent offset
		if t < 0 {         // borrowed past the top: qhat was one too large //metalint:leaky access-sequence limb-value branch in non-CT mpi arithmetic
			qhat--
			var c uint64
			for i := 0; i < n; i++ { //metalint:leaky trip-count per-limb loop; trip count follows operand size
				s := uint64(u[j+i]) + uint64(v[i]) + c //metalint:leaky addr limb access at an operand-dependent offset
				u[j+i] = uint32(s)                     //metalint:leaky addr limb access at an operand-dependent offset
				c = s >> 32
			}
			u[j+n] = uint32(uint64(u[j+n]) + c) //metalint:leaky addr limb access at an operand-dependent offset
		}
		q[j] = uint32(qhat) //metalint:leaky addr limb access at an operand-dependent offset
	}
	r := nat(u[:n]).norm().shr(shift)
	return q.norm(), r
}
