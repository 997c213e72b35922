package mpi

import (
	"fmt"
	"strings"
)

// Int is an arbitrary-precision signed integer. Values are immutable:
// every operation returns a fresh Int. The zero value is 0.
type Int struct {
	neg bool
	abs nat
}

// New returns an Int with the given uint64 value.
func New(v uint64) Int {
	if v == 0 {
		return Int{}
	}
	return Int{abs: nat{uint32(v), uint32(v >> 32)}.norm()}
}

// FromBytes interprets big-endian bytes as an unsigned integer.
func FromBytes(b []byte) Int {
	var x nat
	for _, c := range b {
		x = x.shl(8).add(nat{uint32(c)}.norm())
	}
	return Int{abs: x}
}

// Bytes returns the big-endian magnitude (empty for zero).
func (x Int) Bytes() []byte {
	var out []byte
	for i := len(x.abs) - 1; i >= 0; i-- { //metalint:leaky trip-count per-limb walk of a secret integer
		l := x.abs[i] //metalint:leaky addr digit/limb access into a secret integer
		out = append(out, byte(l>>24), byte(l>>16), byte(l>>8), byte(l))
	}
	for len(out) > 0 && out[0] == 0 { //metalint:leaky trip-count per-limb walk of a secret integer
		out = out[1:]
	}
	return out
}

// FromHex parses a hexadecimal string (no prefix). It panics on invalid
// input; it is intended for literals in tests and fixtures.
func FromHex(s string) Int {
	s = strings.TrimPrefix(strings.ToLower(s), "0x")
	var x nat
	for _, c := range s {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			panic(fmt.Sprintf("mpi: bad hex digit %q", c))
		}
		x = x.shl(4).add(nat{d}.norm())
	}
	return Int{abs: x}
}

// String renders the value in hexadecimal.
func (x Int) String() string {
	if x.abs.isZero() { //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		return "0"
	}
	var sb strings.Builder
	if x.neg { //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		sb.WriteByte('-')
	}
	digits := "0123456789abcdef"
	started := false
	for i := len(x.abs) - 1; i >= 0; i-- { //metalint:leaky trip-count per-limb walk of a secret integer
		for sh := 28; sh >= 0; sh -= 4 {
			d := (x.abs[i] >> uint(sh)) & 0xf //metalint:leaky addr digit/limb access into a secret integer
			if !started && d == 0 {           //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
				continue
			}
			started = true
			sb.WriteByte(digits[d]) //metalint:leaky addr digit/limb access into a secret integer
		}
	}
	return sb.String()
}

// Sign returns -1, 0, or +1.
func (x Int) Sign() int {
	if x.abs.isZero() { //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		return 0
	}
	if x.neg { //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		return -1
	}
	return 1
}

// IsZero reports whether x == 0.
func (x Int) IsZero() bool { return x.abs.isZero() }

// IsOdd reports whether x is odd.
func (x Int) IsOdd() bool { return x.abs.bit(0) == 1 }

// BitLen returns the bit length of |x|.
func (x Int) BitLen() int { return x.abs.bitLen() }

// Bit returns bit i of |x|.
func (x Int) Bit(i int) uint { return x.abs.bit(i) }

// Uint64 returns the low 64 bits of |x|.
func (x Int) Uint64() uint64 {
	var v uint64
	if len(x.abs) > 0 { //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		v = uint64(x.abs[0])
	}
	if len(x.abs) > 1 { //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		v |= uint64(x.abs[1]) << 32
	}
	return v
}

// Cmp compares x and y: -1, 0, +1.
func (x Int) Cmp(y Int) int {
	switch {
	case x.Sign() < y.Sign():
		return -1
	case x.Sign() > y.Sign():
		return 1
	case x.neg: //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		return y.abs.cmp(x.abs)
	default:
		return x.abs.cmp(y.abs)
	}
}

func mk(neg bool, a nat) Int {
	if a.isZero() { //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		return Int{}
	}
	return Int{neg: neg, abs: a}
}

// Neg returns -x.
func (x Int) Neg() Int { return mk(!x.neg, x.abs) }

// Add returns x + y.
func (x Int) Add(y Int) Int {
	if x.neg == y.neg { //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		return mk(x.neg, x.abs.add(y.abs))
	}
	if x.abs.cmp(y.abs) >= 0 {
		return mk(x.neg, x.abs.sub(y.abs))
	}
	return mk(y.neg, y.abs.sub(x.abs))
}

// Sub returns x - y.
func (x Int) Sub(y Int) Int { return x.Add(y.Neg()) }

// Mul returns x * y (Karatsuba above the basecase threshold).
func (x Int) Mul(y Int) Int { return mk(x.neg != y.neg, x.abs.mul(y.abs)) }

// Sqr returns x * x using the dedicated squaring routine.
func (x Int) Sqr() Int { return mk(false, x.abs.sqr()) }

// Shl returns x << s.
func (x Int) Shl(s uint) Int { return mk(x.neg, x.abs.shl(s)) }

// Shr returns |x| >> s with x's sign (arithmetic semantics are not needed
// by any caller; all shift users operate on non-negative values).
func (x Int) Shr(s uint) Int { return mk(x.neg, x.abs.shr(s)) }

// QuoRem returns the truncated quotient and remainder of x / y.
func (x Int) QuoRem(y Int) (Int, Int) {
	q, r := x.abs.divMod(y.abs)
	return mk(x.neg != y.neg, q), mk(x.neg, r)
}

// Mod returns the Euclidean remainder x mod y, always in [0, |y|).
func (x Int) Mod(y Int) Int {
	_, r := x.QuoRem(y)
	if r.neg { //metalint:leaky access-sequence sign/parity/compare branch on a secret integer
		r = r.Add(mk(false, y.abs))
	}
	return r
}
