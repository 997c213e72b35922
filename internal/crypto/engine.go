// Package crypto implements the on-chip security engine of the simulated
// secure processor (Fig. 1 of the paper): counter-mode encryption with
// per-chunk one-time pads, GHASH-based message authentication over
// ciphertext, and the node hashing used by integrity trees.
//
// The engine is functional, not mocked: data written through the memory
// controller is genuinely AES-CTR encrypted with the fused counter as part
// of the seed, MACs genuinely bind ciphertext to address and counter, and
// tampering with the backing store genuinely fails verification. Timing is
// modelled separately (a fixed AES latency per Table I) and never depends
// on the host machine.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"sync"

	"metaleak/internal/arch"
)

// Block is a 64-byte memory block's contents.
type Block [arch.BlockSize]byte

// chunks per 64 B block at the AES-128 chunk size of 16 B.
const chunksPerBlock = arch.BlockSize / 16

// AESLatency is the modelled latency of one OTP generation (Table I).
const AESLatency arch.Cycles = 20

// Config parameterizes the engine.
type Config struct {
	HashLatency arch.Cycles // latency of one node-hash / MAC operation
	Fast        bool        // replace AES/GHASH with fast keyed mixers (for very long benches)
}

// Engine is the security engine. Not safe for concurrent use.
type Engine struct {
	cfg   Config
	key   *fixedKey // shared by every engine
	fastK uint64
	// pad, seed and tag are scratch buffers for otp and ghash: the AES and
	// GCM interface calls force their arguments to escape, so stack
	// buffers would heap-allocate on every access. The engine is
	// single-threaded by contract.
	pad  Block
	seed [16]byte
	tag  [16]byte
}

// fixedKey is everything derived from the machine's fixed AES key, the
// one key every engine uses: the block cipher behind the pads, GCM over
// it (whose Seal computes GHASH, see ghash), the multiply table of the
// GHASH subkey H = AES_k(0^128) (big-endian halves, as in GCM), and
// E_k(J0) for the all-zero nonce, folded to 64 bits. All of it is built
// once per process and shared read-only (AES and Seal keep no state), so
// no engine builds its own key schedule or 8 KiB table.
//
// H is deliberately not a //metalint:secret seed: MAC outputs are
// integrity metadata stored in public memory, so H-derived values
// legitimately reach every counter and tree node the attacker observes —
// in the paper's model the subkey is not what the channels recover.
type fixedKey struct {
	aes  cipher.Block
	gcm  cipher.AEAD
	h    [2]uint64
	tbl  ghashTable
	mask uint64
}

var key = sync.OnceValue(func() *fixedKey {
	blk, err := aes.NewCipher([]byte("metaleak-aes-key"))
	if err != nil {
		panic("crypto: " + err.Error())
	}
	gcm, err := cipher.NewGCM(blk)
	if err != nil {
		panic("crypto: GHASH runs on AES-GCM with a fixed nonce, which Go's FIPS 140-only mode (GODEBUG=fips140=only) forbids: " + err.Error())
	}
	k := &fixedKey{aes: blk, gcm: gcm}
	var b [16]byte
	blk.Encrypt(b[:], b[:])
	k.h = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	k.tbl.init(k.h)
	b = [16]byte{15: 1} // J0 = nonce ‖ 0^31 ‖ 1
	blk.Encrypt(b[:], b[:])
	k.mask = binary.BigEndian.Uint64(b[:8]) ^ binary.BigEndian.Uint64(b[8:])
	return k
})

// New builds an engine under the machine's fixed AES key.
func New(cfg Config) *Engine {
	k := key()
	return &Engine{cfg: cfg, key: k, fastK: k.h[0] ^ k.h[1] | 1}
}

// HashLatency returns the modelled latency of one MAC or node hash.
func (e *Engine) HashLatency() arch.Cycles { return e.cfg.HashLatency }

// otp fills the engine's pad scratch with the 64-byte one-time pad for
// (block address, counter) and returns it. Each 16-byte chunk uses
// seed = chunkAddr ‖ ctr so that pads are unique both spatially (address)
// and temporally (counter), per §IV-A. The counter half of the seed is
// written once for the whole cache-line fill; only the chunk-address half
// changes between the four AES invocations.
func (e *Engine) otp(b arch.BlockID, ctr uint64) *Block {
	pad := &e.pad
	if e.cfg.Fast {
		for ck := 0; ck < chunksPerBlock; ck++ {
			v := mix(uint64(b)<<2|uint64(ck), ctr, e.fastK)
			w := mix(ctr, uint64(b)<<2|uint64(ck), e.fastK)
			binary.LittleEndian.PutUint64(pad[ck*16:], v)
			binary.LittleEndian.PutUint64(pad[ck*16+8:], w)
		}
		return pad
	}
	seed := e.seed[:]
	binary.BigEndian.PutUint64(seed[8:16], ctr)
	base := uint64(b) << 2
	for ck := 0; ck < chunksPerBlock; ck++ {
		binary.BigEndian.PutUint64(seed[0:8], base|uint64(ck))
		e.key.aes.Encrypt(pad[ck*16:(ck+1)*16], seed)
	}
	return pad
}

// EncryptTo produces the ciphertext of *plain into *dst
// (c = p XOR Enc_k(seed)). dst and plain may alias each other but must
// not alias the engine's internal pad (callers outside this package
// cannot). This is the allocation-free path the controller uses.
func (e *Engine) EncryptTo(dst, plain *Block, b arch.BlockID, ctr uint64) {
	subtle.XORBytes(dst[:], plain[:], e.otp(b, ctr)[:])
}

// DecryptTo inverts EncryptTo (counter-mode encryption is an involution
// given the same seed).
func (e *Engine) DecryptTo(dst, ct *Block, b arch.BlockID, ctr uint64) {
	e.EncryptTo(dst, ct, b, ctr)
}

// Encrypt is the by-value convenience form of EncryptTo.
func (e *Engine) Encrypt(plain Block, b arch.BlockID, ctr uint64) Block {
	var out Block
	e.EncryptTo(&out, &plain, b, ctr)
	return out
}

// Decrypt inverts Encrypt.
func (e *Engine) Decrypt(ct Block, b arch.BlockID, ctr uint64) Block {
	return e.Encrypt(ct, b, ctr)
}

// MACOf is MAC without the 64-byte argument copy — the form the memory
// controller uses on its stored ciphertext blocks.
func (e *Engine) MACOf(ct *Block, b arch.BlockID, ctr uint64) uint64 {
	if e.cfg.Fast {
		h := e.fastK
		for i := 0; i < arch.BlockSize; i += 8 {
			h = mix(h, binary.LittleEndian.Uint64(ct[i:]), e.fastK)
		}
		// Absorb address and counter as separate full-width words. Folding
		// them as b^(ctr<<1) discarded the counter's MSB — exactly where
		// MoC/GC epoch bits live — so two seeds differing only in bit 63
		// collided and fast-mode tamper checks went blind to re-keys.
		return mix(mix(h, uint64(b), e.fastK), ctr, e.fastK)
	}
	return e.ghash(ct[:], uint64(b), ctr)
}

// HashBytes computes the 64-bit node hash used by integrity trees over an
// arbitrary byte string (tree node contents, child hash concatenations).
func (e *Engine) HashBytes(data []byte) uint64 {
	if e.cfg.Fast {
		h := e.fastK ^ 0x9e3779b97f4a7c15
		for len(data) >= 8 {
			h = mix(h, binary.LittleEndian.Uint64(data), e.fastK)
			data = data[8:]
		}
		var tail uint64
		for i, c := range data {
			tail |= uint64(c) << (8 * i)
		}
		return mix(h, tail^uint64(len(data)), e.fastK)
	}
	// Length finalization (as in GCM): distinguishes zero-padded inputs of
	// different lengths and prevents the all-zero fixed point.
	return e.ghash(data, 0x4d65746132303234, uint64(len(data)))
}

// zeroNonce is the nonce of every Seal in ghash. GCM's nonce only sets
// the tag mask E_k(J0), which ghash removes again.
var zeroNonce [12]byte

// ghash returns GHASH_H over data, zero-padded to whole 16-byte blocks,
// then the final block (x0, x1), with the 128-bit state Y_n folded to 64
// bits. GCM's Seal, given no plaintext and data as additional data,
// returns T = (Y_{n-1} ⊕ L)·H ⊕ E_k(J0), where Y_{n-1} is the state after
// data and L = (8·len(data), 0) is GCM's length block. So
// Y_n = (Y_{n-1} ⊕ X_n)·H = T ⊕ E_k(J0) ⊕ (L ⊕ X_n)·H: one Seal, which
// runs on AES-NI and carry-less multiply where the standard library has
// assembly for them, and one table multiply.
func (e *Engine) ghash(data []byte, x0, x1 uint64) uint64 {
	t := e.key.gcm.Seal(e.tag[:0], zeroNonce[:], nil, data)
	y0, y1 := e.key.tbl.mul(uint64(len(data))*8^x0, x1)
	return y0 ^ y1 ^ binary.BigEndian.Uint64(t) ^ binary.BigEndian.Uint64(t[8:]) ^ e.key.mask
}

// mix is a fast 64-bit keyed mixer (murmur-style) used in Fast mode.
func mix(a, b, k uint64) uint64 {
	x := a ^ b*0xff51afd7ed558ccd ^ k
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 29
	return x
}
