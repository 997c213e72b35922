package crypto

// ghash implements the GHASH universal hash of GCM (McGrew & Viega, cited
// by the paper as the MAC of choice in secure processors): a polynomial
// evaluation over GF(2^128) with the field defined by
// x^128 + x^7 + x^2 + x + 1.
//
// The multiply uses Shoup's 4-bit table method: the engine precomputes
// H·i for every 4-bit i once per key, and each 128-bit block then costs 32
// table lookups instead of a 128-round bit-serial loop — the dominant cost
// of every secure access before this. The bit-serial gfMul is kept as the
// reference implementation; a property test pins the table method to it.
// The simulator charges a fixed HashLatency regardless, so host-side
// constant-time behaviour is irrelevant here.

// Field elements are [2]uint64 in the GCM bit order: [0] holds the first
// eight bytes (big-endian), [1] the second eight, and the most significant
// bit of [0] is the coefficient of x^0.

// ghashReduction[i] is the polynomial reduction of i·x^{-4} folded back
// into the top 16 bits (the standard GCM 4-bit reduction table).
var ghashReduction = [16]uint64{
	0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
	0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0,
}

// ghashTable holds the per-key precomputation: product[i] = H · i, indexed
// by the 4-bit reversed value of i (so the inner loop can consume nibbles
// low-first without re-reversing).
type ghashTable struct {
	product [16][2]uint64
}

// reverse4 reverses the bits of a 4-bit value.
func reverse4(i int) int {
	return (i&8)>>3 | (i&4)>>1 | (i&2)<<1 | (i&1)<<3
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

// init fills the multiplication table for subkey h.
func (t *ghashTable) init(h [2]uint64) {
	t.product[reverse4(1)] = h
	for i := 2; i < 16; i += 2 {
		d := double(t.product[reverse4(i/2)])
		t.product[reverse4(i)] = d
		t.product[reverse4(i+1)] = [2]uint64{d[0] ^ h[0], d[1] ^ h[1]}
	}
}

// mul multiplies y by the table's subkey H in place.
func (t *ghashTable) mul(y *[2]uint64) {
	var z [2]uint64
	for i := 0; i < 2; i++ {
		word := y[1]
		if i == 1 {
			word = y[0]
		}
		for j := 0; j < 64; j += 4 {
			msw := z[1] & 0xf
			z[1] = z[1]>>4 | z[0]<<60
			z[0] >>= 4
			z[0] ^= ghashReduction[msw] << 48
			p := &t.product[word&0xf]
			z[0] ^= p[0]
			z[1] ^= p[1]
			word >>= 4
		}
	}
	*y = z
}

// ghash is one accumulation in progress.
type ghash struct {
	t *ghashTable
	y [2]uint64
}

func (g *ghash) init(t *ghashTable) {
	g.t = t
	g.y = [2]uint64{}
}

// update absorbs one 128-bit block: Y <- (Y xor X) * H.
func (g *ghash) update(hi, lo uint64) {
	g.y[0] ^= hi
	g.y[1] ^= lo
	g.t.mul(&g.y)
}

// sum folds the 128-bit state to the 64-bit tag used by the simulator.
func (g *ghash) sum() uint64 { return g.y[0] ^ g.y[1] }

// gfMul multiplies two elements of GF(2^128) in the GCM bit order: the
// classic shift-and-conditionally-reduce bit-serial multiply. It is the
// reference the table method is tested against; production paths use
// ghashTable.mul.
//
//metalint:allow deadcode reference model for TestGhashTableMatchesBitSerial
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
