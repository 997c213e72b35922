package crypto

import (
	"crypto/aes"
	"encoding/binary"
	"runtime"
	"testing"

	"metaleak/internal/arch"
)

// hashFinal is the finalisation block's first half in HashBytes; the
// second half is the input length.
const hashFinal = 0x4d65746132303234

// refSubkey derives H = AES_k(0^128) for the fixed key on its own rather
// than through subkey, so a wrong shared H fails the comparison.
func refSubkey(t *testing.T) [2]uint64 {
	t.Helper()
	blk, err := aes.NewCipher([]byte("metaleak-aes-key"))
	if err != nil {
		t.Fatal(err)
	}
	var zero, hb [16]byte
	blk.Encrypt(hb[:], zero[:])
	return [2]uint64{binary.BigEndian.Uint64(hb[:8]), binary.BigEndian.Uint64(hb[8:])}
}

// refGHASH is the bit-serial GHASH the engine's MAC and node hash must
// equal: data zero-padded to whole 16 B blocks, then the finalisation
// block (fin0, fin1), each absorbed as Y <- (Y xor X)·H by gfMul, and the
// 128-bit state folded to 64 bits.
func refGHASH(h [2]uint64, data []byte, fin0, fin1 uint64) uint64 {
	var y [2]uint64
	absorb := func(x0, x1 uint64) { y = gfMul([2]uint64{y[0] ^ x0, y[1] ^ x1}, h) }
	for off := 0; off < len(data); off += 16 {
		var blk [16]byte
		copy(blk[:], data[off:])
		absorb(binary.BigEndian.Uint64(blk[:8]), binary.BigEndian.Uint64(blk[8:]))
	}
	absorb(fin0, fin1)
	return y[0] ^ y[1]
}

func fillRandom(r *arch.RNG, b []byte) {
	for i := range b {
		b[i] = byte(r.Uint64())
	}
}

// TestHashMatchesBitSerialGHASH pins the whole MAC and node hash, not just
// the multiply, to the bit-serial reference: every HashBytes length from
// 0 to 300 B (the trees hash 64, 72, 80, 144 and 272 B), and MACOf over
// random blocks, addresses and counters, half of them with bit 63 set.
func TestHashMatchesBitSerialGHASH(t *testing.T) {
	h := refSubkey(t)
	e := eng()
	r := arch.NewRNG(22)
	buf := make([]byte, 300)
	for n := 0; n <= len(buf); n++ {
		for rep := 0; rep < 3; rep++ {
			data := buf[:n]
			fillRandom(r, data)
			if got, want := e.HashBytes(data), refGHASH(h, data, hashFinal, uint64(n)); got != want {
				t.Fatalf("HashBytes(%x) = %#x, bit-serial GHASH %#x", data, got, want)
			}
		}
	}
	for i := 0; i < 600; i++ {
		var ct Block
		fillRandom(r, ct[:])
		b := arch.BlockID(r.Uint64())
		ctr := r.Uint64()
		if i%2 == 0 {
			ctr |= 1 << 63
		}
		if got, want := e.MACOf(&ct, b, ctr), refGHASH(h, ct[:], uint64(b), ctr); got != want {
			t.Fatalf("MACOf(%x, %#x, %#x) = %#x, bit-serial GHASH %#x", ct, b, ctr, got, want)
		}
	}
}

// TestKnownAnswers pins MACOf and HashBytes for the fixed key to values
// recorded from the Shoup 4-bit table engine that preceded the
// per-position table. A wrong subkey, byte order or finalisation changes
// them, and with them every MAC and tree hash a run stores.
func TestKnownAnswers(t *testing.T) {
	seq := func(n int, mul, add byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)*mul + add
		}
		return b
	}
	e := eng()
	var b1, b2 Block
	copy(b1[:], seq(arch.BlockSize, 1, 0))
	copy(b2[:], seq(arch.BlockSize, 37, 5))
	macs := []struct {
		ct   *Block
		b    arch.BlockID
		ctr  uint64
		want uint64
	}{
		{&b1, 0x12345, 7, 0xfbfc6bd31cd63da2},
		{&b2, 1 << 40, 1<<63 | 5, 0x7ffd737240d97923},
	}
	for _, c := range macs {
		if got := e.MACOf(c.ct, c.b, c.ctr); got != c.want {
			t.Errorf("MACOf(%x, %#x, %#x) = %#016x, want %#016x", *c.ct, c.b, c.ctr, got, c.want)
		}
	}
	hashes := []struct {
		n    int
		want uint64
	}{
		{0, 0x9790f84ad2235b38},
		{1, 0x612d0fedb1dcef03},
		{17, 0x231ed2b81f5daf3c},
		{64, 0x631ffd8b0229d192},
		{72, 0x0474ac9dcda95022},
		{80, 0x5ce020df249200e7},
		{144, 0x6a808962f735b990},
		{272, 0x8a2a5856f5a32d6f},
	}
	for _, c := range hashes {
		if got := e.HashBytes(seq(c.n, 1, 0)); got != c.want {
			t.Errorf("HashBytes(0, 1, …, %d) = %#016x, want %#016x", c.n-1, got, c.want)
		}
	}
}

// engineSink keeps constructed engines on the heap, as a machine keeps
// them, so an inlined New cannot be measured on the stack.
var engineSink *Engine

// TestNewEngineAllocs bounds one engine's construction at the 4 objects
// and 960 B it took while each engine built its own 256 B Shoup table.
// The 8 KiB per-position table is built once per process; an engine that
// built its own would fail here, which a whole machine's allocation bound
// is too coarse to notice.
func TestNewEngineAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	engineSink = eng()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		engineSink = eng()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("crypto.New: %.1f objects, %.0f B", objects, bytes)
	if objects > 4 || bytes > 960 {
		t.Fatalf("crypto.New allocates %.1f objects and %.0f B, want at most 4 and 960 B", objects, bytes)
	}
}
