// Package ctr implements the encryption counter schemes of §IV-A of the
// paper: Global Counter (GC), Monolithic Counter (MoC), and Split Counter
// (SC). Each scheme answers three questions for the secure memory
// controller:
//
//   - which metadata block holds the counter for a data block (the
//     indirection MetaLeak-T exploits),
//   - what seed value encrypts the block right now, and
//   - what happens on a write (Algorithm 1): increment, detect overflow,
//     and name the counter-sharing group G that must be re-encrypted.
//
// Counter state is authoritative here (it models the memory contents);
// whether a counter *block* is on-chip is tracked by the metadata cache in
// the controller.
package ctr

import (
	"encoding/binary"
	"sort"

	"metaleak/internal/arch"
)

// Change records one block's counter transition during overflow handling,
// so the controller can decrypt with the old seed and re-encrypt with the
// new one (Algorithm 1 line 5).
type Change struct {
	Block arch.BlockID
	Old   uint64
	New   uint64
}

// Overflow describes the fallout of an Increment that overflowed.
type Overflow struct {
	// Reencrypt lists every block in the counter-sharing group other than
	// the written block, with old and new seed values.
	Reencrypt []Change
	// GroupSize is len(Reencrypt)+1 — the paper's |G|.
	GroupSize int
}

// Scheme is the interface the memory controller programs against.
type Scheme interface {
	// Name returns "GC", "MoC" or "SC".
	Name() string
	// CounterBlock returns the metadata block holding b's counter.
	CounterBlock(b arch.BlockID) arch.BlockID
	// Value returns the seed value that currently encrypts b.
	Value(b arch.BlockID) uint64
	// Increment advances the counter for a write to b, returning the new
	// seed value and, if the counter overflowed, the re-encryption work.
	Increment(b arch.BlockID) (newVal uint64, ov *Overflow)
	// BlockBytes serializes the counter block's contents (for hashing and
	// for integrity verification by the tree). cb must be a block returned
	// by CounterBlock.
	BlockBytes(cb arch.BlockID) [arch.BlockSize]byte
	// FanOut returns how many data blocks share one counter block. They
	// are consecutive and lie in one page: counter block
	// CounterBase.Block()+i holds the counters of data blocks
	// [i·FanOut, (i+1)·FanOut). This is the reverse of CounterBlock that
	// attack address arithmetic uses.
	FanOut() int
	// CorruptCounter flips counter state covering b (tamper injection:
	// physical corruption of the counter block in memory): the per-block
	// minor/counter low bit, or — with major set — the shared major
	// counter / a high counter bit. Both Value(b) and
	// BlockBytes(CounterBlock(b)) change, so the data MAC and the
	// integrity tree each have something to catch.
	CorruptCounter(b arch.BlockID, major bool)
}

// counterBase is CounterBase expressed as a BlockID.
func counterBase() arch.BlockID { return arch.CounterBase.Block() }

// PageCounterBlock is SC's counter-block mapping: one counter block per
// data page.
func PageCounterBlock(b arch.BlockID) arch.BlockID {
	return counterBase() + arch.BlockID(b.Page())
}

// PackedCounterBlock is MoC's and GC's counter-block mapping: eight
// 64-bit counter slots per block.
func PackedCounterBlock(b arch.BlockID) arch.BlockID {
	return counterBase() + arch.BlockID(uint64(b)/ctrsPerBlock)
}

// ---------------------------------------------------------------------------
// Split Counter (SC): one 64-bit major counter and 64 7-bit minor counters
// per data page, packed into exactly one 64-byte counter block (Table I).
// ---------------------------------------------------------------------------

// SCConfig parameterizes the split-counter scheme.
type SCConfig struct {
	MinorBits uint // 7 in Table I
}

// pageCounters is the state of one counter block. serial memoizes the
// packed BlockBytes serialization — the 7-bit bit-packing is the single
// hottest piece of counter arithmetic on the write path, and the packed
// form only changes when a counter does (serialOK is cleared on every
// mutation).
type pageCounters struct {
	major    uint64
	minors   [arch.BlocksPerPage]uint16
	serial   [arch.BlockSize]byte
	serialOK bool
}

// SC is the split-counter scheme.
type SC struct {
	cfg SCConfig
	// pages holds the pages an Increment or CorruptCounter has touched.
	// Every other page's counters are all zero, and readers take a
	// missing page as that, so reading a page costs no entry.
	pages map[arch.PageID]*pageCounters
}

// NewSC builds a split-counter scheme. MinorBits of 0 selects the Table I
// default of 7.
func NewSC(cfg SCConfig) *SC {
	if cfg.MinorBits == 0 {
		cfg.MinorBits = 7
	}
	return &SC{cfg: cfg, pages: make(map[arch.PageID]*pageCounters)}
}

// Name implements Scheme.
func (s *SC) Name() string { return "SC" }

// MinorMax returns the saturation value of a minor counter (2^n - 1).
func (s *SC) MinorMax() uint64 { return 1<<s.cfg.MinorBits - 1 }

func (s *SC) page(p arch.PageID) *pageCounters {
	pc := s.pages[p]
	if pc == nil {
		pc = &pageCounters{}
		s.pages[p] = pc
	}
	return pc
}

// CounterBlock implements Scheme: one counter block per data page.
func (s *SC) CounterBlock(b arch.BlockID) arch.BlockID { return PageCounterBlock(b) }

// PageOfCounterBlock inverts CounterBlock.
func (s *SC) PageOfCounterBlock(cb arch.BlockID) arch.PageID {
	return arch.PageID(cb - counterBase())
}

// FanOut implements Scheme: a counter block covers one page.
func (s *SC) FanOut() int { return arch.BlocksPerPage }

func (s *SC) fused(major uint64, minor uint16) uint64 {
	return major<<s.cfg.MinorBits | uint64(minor)
}

// Value implements Scheme: the fused counter major‖minor.
func (s *SC) Value(b arch.BlockID) uint64 {
	pc := s.pages[b.Page()]
	if pc == nil {
		return 0
	}
	return s.fused(pc.major, pc.minors[b.Index()])
}

// MinorValue returns the raw minor counter of a data block — the state the
// MetaLeak-C mPreset step manipulates.
func (s *SC) MinorValue(b arch.BlockID) uint64 {
	pc := s.pages[b.Page()]
	if pc == nil {
		return 0
	}
	return uint64(pc.minors[b.Index()])
}

// Increment implements Scheme (Algorithm 1 for the SC scheme): the minor
// counter advances; when it would exceed its width the shared major counter
// is incremented, all minors reset, and the whole page (the counter-sharing
// group G_SC) must be re-encrypted.
func (s *SC) Increment(b arch.BlockID) (uint64, *Overflow) {
	pc := s.page(b.Page())
	pc.serialOK = false
	idx := b.Index()
	if uint64(pc.minors[idx]) < s.MinorMax() {
		pc.minors[idx]++
		return s.fused(pc.major, pc.minors[idx]), nil
	}
	// Overflow: record old values, bump major, reset minors.
	ov := &Overflow{GroupSize: arch.BlocksPerPage}
	oldMajor := pc.major
	pc.major++
	for i := 0; i < arch.BlocksPerPage; i++ {
		if i == idx {
			continue
		}
		old := s.fused(oldMajor, pc.minors[i])
		pc.minors[i] = 0
		ov.Reencrypt = append(ov.Reencrypt, Change{
			Block: b.Page().Block(i),
			Old:   old,
			New:   s.fused(pc.major, 0),
		})
	}
	pc.minors[idx] = 1
	return s.fused(pc.major, 1), ov
}

// CorruptCounter implements Scheme: the page's shared major counter or
// b's own minor counter takes a one-bit flip.
func (s *SC) CorruptCounter(b arch.BlockID, major bool) {
	pc := s.page(b.Page())
	pc.serialOK = false
	if major {
		pc.major ^= 1
		return
	}
	pc.minors[b.Index()] ^= 1
}

// BlockBytes implements Scheme: 8 bytes of major counter followed by 56
// bytes holding the 64 packed 7-bit minors (the Table I layout). Wider
// minors (ablation configs) fall back to byte packing of the low 8 bits.
func (s *SC) BlockBytes(cb arch.BlockID) [arch.BlockSize]byte {
	pc := s.pages[s.PageOfCounterBlock(cb)]
	if pc == nil {
		return [arch.BlockSize]byte{} // all-zero counters pack to zero bytes
	}
	if pc.serialOK {
		return pc.serial
	}
	pc.serial = [arch.BlockSize]byte{}
	out := &pc.serial
	binary.LittleEndian.PutUint64(out[0:8], pc.major)
	if s.cfg.MinorBits == 7 {
		bitOff := 0
		for i := 0; i < arch.BlocksPerPage; i++ {
			v := uint64(pc.minors[i]) & 0x7f
			byteIdx := 8 + bitOff/8
			sh := uint(bitOff % 8)
			out[byteIdx] |= byte(v << sh)
			if sh > 1 {
				out[byteIdx+1] |= byte(v >> (8 - sh))
			}
			bitOff += 7
		}
	} else {
		for i := 0; i < arch.BlocksPerPage && 8+i < arch.BlockSize; i++ {
			out[8+i] = byte(pc.minors[i])
		}
	}
	pc.serialOK = true
	return pc.serial
}

// ---------------------------------------------------------------------------
// Monolithic Counter (MoC): one counter per data block; overflow forces
// whole-memory re-encryption under a new key epoch.
// ---------------------------------------------------------------------------

// MoCConfig parameterizes the monolithic scheme.
type MoCConfig struct {
	Bits uint // counter width; 56 models SGX, small values for ablations
}

// MoC is the monolithic counter scheme.
type MoC struct {
	cfg      MoCConfig
	counters map[arch.BlockID]uint64
	epoch    uint64 // key epoch, bumped on overflow (whole-memory re-encrypt)
	// touched records every block whose seed was ever observed (read or
	// written). The controller materializes ciphertext for read-only blocks
	// at the observed seed, and the seed embeds the key epoch — so a
	// whole-memory re-key must re-encrypt ALL touched blocks, not just the
	// ever-written ones, or the next read of a read-only block fails its
	// MAC check as a phantom tamper detection.
	touched map[arch.BlockID]struct{}
}

// NewMoC builds a monolithic-counter scheme. Bits of 0 selects 56 (SGX).
func NewMoC(cfg MoCConfig) *MoC {
	if cfg.Bits == 0 {
		cfg.Bits = 56
	}
	return &MoC{
		cfg:      cfg,
		counters: make(map[arch.BlockID]uint64),
		touched:  make(map[arch.BlockID]struct{}),
	}
}

// Name implements Scheme.
func (m *MoC) Name() string { return "MoC" }

func (m *MoC) max() uint64 { return 1<<m.cfg.Bits - 1 }

const ctrsPerBlock = arch.BlockSize / 8

// CounterBlock implements Scheme: eight 64-bit counter slots per block.
func (m *MoC) CounterBlock(b arch.BlockID) arch.BlockID { return PackedCounterBlock(b) }

// FanOut implements Scheme: one slot per data block.
func (m *MoC) FanOut() int { return ctrsPerBlock }

// Value implements Scheme; the key epoch occupies the seed bits above the
// counter so that re-keying changes every block's effective seed. Every
// queried block joins the touched set: handing out a seed is what lets the
// controller materialize ciphertext under it, committing the block to the
// current epoch until a re-key re-encrypts it.
func (m *MoC) Value(b arch.BlockID) uint64 {
	m.touched[b] = struct{}{}
	return m.epoch<<m.cfg.Bits | m.counters[b]
}

// Increment implements Scheme. Overflow of any one counter requires
// re-encrypting the entire (touched) memory under a new key epoch —
// G_MoC is all of memory.
func (m *MoC) Increment(b arch.BlockID) (uint64, *Overflow) {
	m.touched[b] = struct{}{}
	if m.counters[b] < m.max() {
		m.counters[b]++
		return m.Value(b), nil
	}
	ov := &Overflow{}
	oldEpoch := m.epoch
	m.epoch++
	// Re-encrypt every touched block, written or merely read: read-only
	// blocks were materialized at the old epoch's seed and go stale under
	// the new key exactly like written ones. In block order: the overflow
	// burst becomes DRAM traffic, so its order must not depend on map
	// iteration.
	blocks := make([]arch.BlockID, 0, len(m.touched))
	for blk := range m.touched {
		if blk != b {
			blocks = append(blocks, blk)
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, blk := range blocks {
		c := m.counters[blk]
		ov.Reencrypt = append(ov.Reencrypt, Change{
			Block: blk,
			Old:   oldEpoch<<m.cfg.Bits | c,
			New:   m.epoch<<m.cfg.Bits | c,
		})
	}
	ov.GroupSize = len(ov.Reencrypt) + 1
	m.counters[b] = 0
	return m.Value(b), ov
}

// CorruptCounter implements Scheme. MoC has no shared major counter, so
// the "major" flavour flips the counter's top stored bit instead — a
// high-order corruption of the same per-block counter word.
func (m *MoC) CorruptCounter(b arch.BlockID, major bool) {
	if major {
		m.counters[b] ^= 1 << (m.cfg.Bits - 1)
		return
	}
	m.counters[b] ^= 1
}

// BlockBytes implements Scheme: the slots of the block's FanOut data
// blocks, in address order.
func (m *MoC) BlockBytes(cb arch.BlockID) [arch.BlockSize]byte {
	var out [arch.BlockSize]byte
	base := arch.BlockID(uint64(cb-counterBase()) * ctrsPerBlock)
	for i := 0; i < ctrsPerBlock; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], m.counters[base+arch.BlockID(i)])
	}
	return out
}

// ---------------------------------------------------------------------------
// Global Counter (GC): a single shared counter; each block stores the
// snapshot value that encrypted it. Overflow re-keys the whole memory.
// ---------------------------------------------------------------------------

// GCConfig parameterizes the global-counter scheme.
type GCConfig struct {
	Bits uint // global counter width
}

// GC is the global counter scheme.
type GC struct {
	cfg       GCConfig
	global    uint64
	epoch     uint64
	snapshots map[arch.BlockID]uint64 // value used at last encryption
	// touched records every block whose seed was ever observed — see the
	// MoC field of the same name: a whole-memory re-key must cover
	// read-only materialized blocks too.
	touched map[arch.BlockID]struct{}
}

// NewGC builds a global-counter scheme. Bits of 0 selects 32.
func NewGC(cfg GCConfig) *GC {
	if cfg.Bits == 0 {
		cfg.Bits = 32
	}
	return &GC{
		cfg:       cfg,
		snapshots: make(map[arch.BlockID]uint64),
		touched:   make(map[arch.BlockID]struct{}),
	}
}

// Name implements Scheme.
func (g *GC) Name() string { return "GC" }

func (g *GC) max() uint64 { return 1<<g.cfg.Bits - 1 }

// CounterBlock implements Scheme: snapshots are stored like MoC counters.
func (g *GC) CounterBlock(b arch.BlockID) arch.BlockID { return PackedCounterBlock(b) }

// FanOut implements Scheme: one snapshot slot per data block.
func (g *GC) FanOut() int { return ctrsPerBlock }

// Value implements Scheme. Like MoC.Value, the queried block joins the
// touched set so a later re-key re-encrypts it.
func (g *GC) Value(b arch.BlockID) uint64 {
	g.touched[b] = struct{}{}
	return g.epoch<<g.cfg.Bits | g.snapshots[b]
}

// Increment implements Scheme. The shared counter advances on every write;
// its overflow forces a key change and whole-memory re-encryption.
func (g *GC) Increment(b arch.BlockID) (uint64, *Overflow) {
	g.touched[b] = struct{}{}
	if g.global < g.max() {
		g.global++
		g.snapshots[b] = g.global
		return g.Value(b), nil
	}
	ov := &Overflow{}
	oldEpoch := g.epoch
	g.epoch++
	g.global = 0
	// Re-encrypt every touched block, read-only ones included (see
	// MoC.Increment), in block order: the burst's DRAM traffic order must
	// not depend on map iteration.
	blocks := make([]arch.BlockID, 0, len(g.touched))
	for blk := range g.touched {
		if blk != b {
			blocks = append(blocks, blk)
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, blk := range blocks {
		snap := g.snapshots[blk]
		// Under the new key every snapshot re-encrypts; values keep their
		// snapshot but move to the new epoch.
		ov.Reencrypt = append(ov.Reencrypt, Change{
			Block: blk,
			Old:   oldEpoch<<g.cfg.Bits | snap,
			New:   g.epoch<<g.cfg.Bits | snap,
		})
	}
	ov.GroupSize = len(ov.Reencrypt) + 1
	g.global++
	g.snapshots[b] = g.global
	return g.Value(b), ov
}

// CorruptCounter implements Scheme: the stored state per block is the
// encryption-time snapshot, so that is what physical corruption hits —
// low bit, or top snapshot bit for the "major" flavour.
func (g *GC) CorruptCounter(b arch.BlockID, major bool) {
	if major {
		g.snapshots[b] ^= 1 << (g.cfg.Bits - 1)
		return
	}
	g.snapshots[b] ^= 1
}

// BlockBytes implements Scheme: the slots of the block's FanOut data
// blocks, in address order.
func (g *GC) BlockBytes(cb arch.BlockID) [arch.BlockSize]byte {
	var out [arch.BlockSize]byte
	base := arch.BlockID(uint64(cb-counterBase()) * ctrsPerBlock)
	for i := 0; i < ctrsPerBlock; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], g.snapshots[base+arch.BlockID(i)])
	}
	return out
}
