package crypto

// GHASH is the universal hash of GCM (McGrew & Viega, cited by the paper
// as the MAC of choice in secure processors): a polynomial evaluation over
// GF(2^128) with the field defined by x^128 + x^7 + x^2 + x + 1. The
// engine runs its blocks through the standard library's GCM (ghash in
// engine.go); the one block it adds after them is a multiply by the
// subkey H here.
//
// Multiplying by H is linear over GF(2), so it splits over the 32 nibbles
// of the operand: a per-position table holds H times every 4-bit value at
// every nibble position, and a 128-bit multiply is the XOR of 32
// independent lookups, with no shift or reduction step between them (the
// reduction is folded into the table). The table is 8 KiB, and every
// engine shares the one built for the fixed key (key in engine.go).
// The bit-serial gfMul is kept as the reference implementation; property
// tests pin the table multiply and the whole MAC and node hash to it.
// The simulator charges a fixed HashLatency regardless, so host-side
// constant-time behaviour is irrelevant here.

// Field elements are [2]uint64 in the GCM bit order: [0] holds the first
// eight bytes (big-endian), [1] the second eight, and the most significant
// bit of [0] is the coefficient of x^0.

// ghashTable is the multiply table of one subkey H: product[i][n] is H
// times the 4-bit value n placed at nibble position i. Position i holds
// the coefficients of x^{4i}..x^{4i+3}, so positions 0-15 are the nibbles
// of [0] and 16-31 those of [1], most significant first, and n's most
// significant bit is the coefficient of x^{4i}.
type ghashTable struct {
	product [32][16][2]uint64
}

// double multiplies an element by x (a right shift in GCM bit order, with
// reduction by the field polynomial when the x^127 coefficient falls off).
func double(v [2]uint64) [2]uint64 {
	carry := v[1] & 1
	v[1] = v[1]>>1 | v[0]<<63
	v[0] >>= 1
	if carry == 1 {
		v[0] ^= 0xe100000000000000
	}
	return v
}

// init fills the table for subkey h: the single-bit entries of position i
// are H·x^{4i}..H·x^{4i+3}, and every other entry is the XOR of the
// entries for its bits.
func (t *ghashTable) init(h [2]uint64) {
	v := h
	for i := range t.product {
		p := &t.product[i]
		for bit := 8; bit > 0; bit >>= 1 {
			p[bit] = v
			v = double(v)
		}
		for n := 3; n < 16; n++ {
			if low := n & -n; low != n {
				p[n] = [2]uint64{p[low][0] ^ p[n^low][0], p[low][1] ^ p[n^low][1]}
			}
		}
	}
}

// mul returns (y0, y1) times the table's subkey H.
func (t *ghashTable) mul(y0, y1 uint64) (z0, z1 uint64) {
	for i := 15; i >= 0; i-- {
		a := &t.product[i][y0&0xf]
		b := &t.product[16+i][y1&0xf]
		z0 ^= a[0] ^ b[0]
		z1 ^= a[1] ^ b[1]
		y0 >>= 4
		y1 >>= 4
	}
	return z0, z1
}

// gfMul multiplies two elements of GF(2^128) in the GCM bit order: the
// classic shift-and-conditionally-reduce bit-serial multiply. It is the
// reference the table method and the engine's GHASH are tested against.
//
//metalint:allow deadcode reference model for TestGhashTableMatchesBitSerial and TestHashMatchesBitSerialGHASH
func gfMul(x, y [2]uint64) [2]uint64 {
	var z [2]uint64
	v := y
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = (x[0] >> (63 - i)) & 1
		} else {
			bit = (x[1] >> (127 - i)) & 1
		}
		if bit == 1 {
			z[0] ^= v[0]
			z[1] ^= v[1]
		}
		v = double(v)
	}
	return z
}
