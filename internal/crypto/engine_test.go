package crypto

import (
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
)

func eng() *Engine  { return New(DefaultConfig()) }
func fast() *Engine { return New(Config{HashLatency: 12, Fast: true}) }

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := eng()
	var p Block
	for i := range p {
		p[i] = byte(i)
	}
	ct := e.Encrypt(p, 42, 7)
	if ct == p {
		t.Fatal("ciphertext equals plaintext")
	}
	if got := e.Decrypt(ct, 42, 7); got != p {
		t.Fatal("round trip failed")
	}
}

func TestCiphertextDependsOnCounter(t *testing.T) {
	e := eng()
	var p Block
	c1 := e.Encrypt(p, 1, 1)
	c2 := e.Encrypt(p, 1, 2)
	if c1 == c2 {
		t.Fatal("temporal uniqueness violated: same ciphertext for different counters")
	}
}

func TestCiphertextDependsOnAddress(t *testing.T) {
	e := eng()
	var p Block
	c1 := e.Encrypt(p, 1, 1)
	c2 := e.Encrypt(p, 2, 1)
	if c1 == c2 {
		t.Fatal("spatial uniqueness violated: same ciphertext for different addresses")
	}
}

func TestMACBindsAll(t *testing.T) {
	e := eng()
	var ct Block
	ct[5] = 9
	base := e.MACOf(&ct, 10, 3)
	ct2 := ct
	ct2[5] ^= 1
	if e.MACOf(&ct2, 10, 3) == base {
		t.Fatal("MAC ignores ciphertext")
	}
	if e.MACOf(&ct, 11, 3) == base {
		t.Fatal("MAC ignores address (splicing undetected)")
	}
	if e.MACOf(&ct, 10, 4) == base {
		t.Fatal("MAC ignores counter (replay undetected)")
	}
}

func TestHashBytesSensitivity(t *testing.T) {
	e := eng()
	a := []byte("integrity tree node contents....")
	b := append([]byte(nil), a...)
	b[3] ^= 1
	if e.HashBytes(a) == e.HashBytes(b) {
		t.Fatal("hash collision on single-bit flip")
	}
	if e.HashBytes(a) != e.HashBytes(a) {
		t.Fatal("hash not deterministic")
	}
}

func TestHashBytesLengthExtension(t *testing.T) {
	e := eng()
	if e.HashBytes([]byte{0}) == e.HashBytes([]byte{0, 0}) {
		t.Fatal("hash ignores length")
	}
}

func TestFastModePreservesProperties(t *testing.T) {
	e := fast()
	var p Block
	p[0] = 1
	ct := e.Encrypt(p, 5, 9)
	if e.Decrypt(ct, 5, 9) != p {
		t.Fatal("fast mode round trip failed")
	}
	if e.MACOf(&ct, 5, 9) == e.MACOf(&ct, 5, 10) {
		t.Fatal("fast MAC ignores counter")
	}
}

// Property: for random plaintext/address/counter, decryption inverts
// encryption, and decrypting with a wrong counter never yields the
// plaintext (the replay-detection foundation).
func TestQuickRoundTripAndWrongCounter(t *testing.T) {
	e := eng()
	f := func(p Block, addr uint32, c uint16) bool {
		b := arch.BlockID(addr)
		ct := e.Encrypt(p, b, uint64(c))
		if e.Decrypt(ct, b, uint64(c)) != p {
			return false
		}
		return e.Decrypt(ct, b, uint64(c)+1) != p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: GHASH-based MACs of distinct (ct, addr, ctr) triples collide
// with negligible probability — check no collisions over random samples.
func TestQuickMACUniqueness(t *testing.T) {
	e := eng()
	seen := make(map[uint64]bool)
	f := func(ct Block, addr uint16, c uint8) bool {
		m := e.MACOf(&ct, arch.BlockID(addr), uint64(c))
		if seen[m] {
			return false
		}
		seen[m] = true
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGFMulAgainstKnownIdentity(t *testing.T) {
	// Multiplying by the GCM "1" element (MSB-first: 0x80000...) must be
	// the identity.
	one := [2]uint64{1 << 63, 0}
	x := [2]uint64{0x0123456789abcdef, 0xfedcba9876543210}
	if got := gfMul(x, one); got != x {
		t.Fatalf("x * 1 != x: %x", got)
	}
	if got := gfMul(one, x); got != x {
		t.Fatalf("1 * x != x: %x", got)
	}
}

func TestGFMulCommutative(t *testing.T) {
	f := func(a, b, c, d uint64) bool {
		x, y := [2]uint64{a, b}, [2]uint64{c, d}
		return gfMul(x, y) == gfMul(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGFMulDistributive(t *testing.T) {
	f := func(a, b, c, d, e2, f2 uint64) bool {
		x, y, z := [2]uint64{a, b}, [2]uint64{c, d}, [2]uint64{e2, f2}
		// x*(y+z) == x*y + x*z (addition is XOR)
		sum := [2]uint64{y[0] ^ z[0], y[1] ^ z[1]}
		l := gfMul(x, sum)
		r1, r2 := gfMul(x, y), gfMul(x, z)
		return l == [2]uint64{r1[0] ^ r2[0], r1[1] ^ r2[1]}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGhashTableMatchesBitSerial(t *testing.T) {
	// The table-driven multiply must agree with the reference bit-serial
	// gfMul for every subkey and operand — it is what keeps the optimized
	// MAC/HashBytes byte-identical to the pre-optimization engine.
	f := func(h0, h1, y0, y1 uint64) bool {
		var tbl ghashTable
		tbl.init([2]uint64{h0, h1})
		y := [2]uint64{y0, y1}
		tbl.mul(&y)
		return y == gfMul([2]uint64{y0, y1}, [2]uint64{h0, h1})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMACDistinguishesTopBitCounters(t *testing.T) {
	// Two seeds differing only in bit 63 — exactly where MoC/GC key-epoch
	// bits live — must produce distinct tags in both engines. The fast
	// path used to fold the counter as b ^ (ctr<<1), shifting the MSB out.
	for _, e := range []*Engine{eng(), fast()} {
		f := func(ct Block, addr uint16, c uint64) bool {
			lo := c &^ (1 << 63)
			hi := lo | 1<<63
			return e.MACOf(&ct, arch.BlockID(addr), lo) != e.MACOf(&ct, arch.BlockID(addr), hi)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("Fast=%v: %v", e.cfg.Fast, err)
		}
	}
}

// DefaultConfig returns the Table I crypto engine (20-cycle AES).
func DefaultConfig() Config {
	return Config{HashLatency: 20}
}
