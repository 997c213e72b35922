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
	aes   cipher.Block
	tbl   *ghashTable // shared by every engine; see subkey
	fastK uint64
	// pad and seed are scratch buffers for otp: the AES interface call
	// forces its arguments to escape, so stack buffers would heap-allocate
	// one pad per access. The engine is single-threaded by contract.
	pad  Block
	seed [16]byte
}

// newCipher keys AES with the machine's fixed key, the one key every
// engine uses.
func newCipher() cipher.Block {
	blk, err := aes.NewCipher([]byte("metaleak-aes-key"))
	if err != nil {
		panic("crypto: " + err.Error())
	}
	return blk
}

// subkey returns the GHASH subkey H = AES_k(0^128), as in GCM (big-endian
// halves), and its multiply table. The key is fixed, so both are the same
// for every engine: they are built once per process and shared read-only,
// which keeps the 8 KiB table out of each engine's construction.
//
// H is deliberately not a //metalint:secret seed: MAC outputs are
// integrity metadata stored in public memory, so H-derived values
// legitimately reach every counter and tree node the attacker observes —
// in the paper's model the subkey is not what the channels recover.
var subkey = sync.OnceValues(func() ([2]uint64, *ghashTable) {
	var zero, hb [16]byte
	newCipher().Encrypt(hb[:], zero[:])
	h := [2]uint64{binary.BigEndian.Uint64(hb[0:8]), binary.BigEndian.Uint64(hb[8:16])}
	t := new(ghashTable)
	t.init(h)
	return h, t
})

// New builds an engine under the machine's fixed AES key.
func New(cfg Config) *Engine {
	h, tbl := subkey()
	return &Engine{cfg: cfg, aes: newCipher(), tbl: tbl, fastK: h[0] ^ h[1] | 1}
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
		e.aes.Encrypt(pad[ck*16:(ck+1)*16], seed)
	}
	return pad
}

// EncryptTo produces the ciphertext of *plain into *dst
// (c = p XOR Enc_k(seed)). dst and plain may alias each other but must
// not alias the engine's internal pad (callers outside this package
// cannot). This is the allocation-free path the controller uses.
func (e *Engine) EncryptTo(dst, plain *Block, b arch.BlockID, ctr uint64) {
	pad := e.otp(b, ctr)
	for i := range dst {
		dst[i] = plain[i] ^ pad[i]
	}
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
	var g ghash
	g.init(e.tbl)
	for ck := 0; ck < chunksPerBlock; ck++ {
		g.update(binary.BigEndian.Uint64(ct[ck*16:]), binary.BigEndian.Uint64(ct[ck*16+8:]))
	}
	g.update(uint64(b), ctr)
	return g.sum()
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
	n := len(data)
	var g ghash
	g.init(e.tbl)
	for len(data) >= 16 {
		g.update(binary.BigEndian.Uint64(data), binary.BigEndian.Uint64(data[8:]))
		data = data[16:]
	}
	if len(data) > 0 {
		var pad [16]byte
		copy(pad[:], data)
		g.update(binary.BigEndian.Uint64(pad[:8]), binary.BigEndian.Uint64(pad[8:]))
	}
	// Length finalization (as in GCM): distinguishes zero-padded inputs of
	// different lengths and prevents the all-zero fixed point.
	g.update(0x4d65746132303234, uint64(n))
	return g.sum()
}

// mix is a fast 64-bit keyed mixer (murmur-style) used in Fast mode.
func mix(a, b, k uint64) uint64 {
	x := a ^ b*0xff51afd7ed558ccd ^ k
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 29
	return x
}
