// Package secmem implements the secure memory controller of the simulated
// processor: the component that services last-level-cache misses by
// reading/writing encrypted memory, maintaining encryption counters,
// verifying and lazily updating the integrity tree, and caching metadata
// in the shared counter-and-tree cache of Table I.
//
// The controller realizes the four read paths of Fig. 5 and the
// write/overflow behaviour of Algorithm 1 and §V. Every access returns a
// Report with the path taken and the simulated latency, which is what the
// MetaLeak primitives observe.
package secmem

import (
	"metaleak/internal/arch"
	"metaleak/internal/cache"
	"metaleak/internal/crypto"
	"metaleak/internal/ctr"
	"metaleak/internal/dram"
	"metaleak/internal/itree"
	"metaleak/internal/mirage"
)

// Path identifies which of the Fig. 5 access paths an access took. Path 1
// (all on-chip data-cache hits) never reaches the controller; the sim layer
// reports it.
type Path int

const (
	// PathCacheHit is an access satisfied by the core-side caches (Fig 5a).
	PathCacheHit Path = 1
	// PathCounterHit is a data miss whose counter was on-chip (Fig 5b).
	PathCounterHit Path = 2
	// PathTreeHit is a data and counter miss whose tree leaf was on-chip
	// (Fig 5c).
	PathTreeHit Path = 3
	// PathTreeMiss additionally missed one or more tree levels (Fig 5d).
	PathTreeMiss Path = 4
)

// Report describes one serviced access.
type Report struct {
	Latency          arch.Cycles
	Path             Path
	CounterHit       bool
	TreeLevelsLoaded int  // node blocks fetched from memory
	Overflow         bool // an encryption counter overflowed (writes only)
	TreeOverflow     bool // a tree minor counter overflowed (write-backs)
	Reencrypted      int  // blocks re-encrypted due to counter overflow
	Tampered         bool // integrity verification failed
}

// overflowStall is the fixed bookkeeping stall the triggering operation
// pays when overflow handling kicks off (the burst itself runs in the
// background; see Fig. 8).
const overflowStall = 200

// macLatency is the fixed MAC fetch+check cost. Per §IV-B it is constant
// and pattern-agnostic, so it is charged as a flat cost.
const macLatency = 30

// Config parameterizes the controller.
type Config struct {
	DRAM   dram.Config
	Meta   cache.Config // shared counter & tree cache (Table I: 256 KB, 8-way)
	Engine crypto.Config

	// QueueDelay models read-queue service time at the MC.
	QueueDelay arch.Cycles
	// TreeStepDelay models the per-level serialization of the integrity
	// tree walk: node fetches overlap across banks, but each level's
	// verification issue lags the previous by this delay (dependent MSHR
	// allocation and hash pipelining). Fig. 6/7 show ~30 cycles per level
	// in the simulated design and ~100 on SGX hardware.
	TreeStepDelay arch.Cycles

	// Plain disables all protection (no encryption, MAC, counters, or
	// tree): the insecure baseline against which the secure designs'
	// overhead — and MetaLeak's attack surface — is measured.
	Plain bool

	// RandomizedMeta replaces the set-associative metadata cache with a
	// MIRAGE instance (the §IX-B defence actually deployed): there is no
	// stable address-to-set mapping for eviction sets to target. Meta()
	// then returns nil and conflict-based mEvict is impossible; only
	// volume-based eviction remains (Fig. 18).
	RandomizedMeta *mirage.Config
}

// MetaCache abstracts the shared metadata cache: the set-associative
// default or the MIRAGE-randomized variant.
type MetaCache interface {
	Access(b arch.BlockID, write bool) bool
	Insert(b arch.BlockID, dirty bool) (cache.Eviction, bool)
	HitLatency() arch.Cycles
	// Invalidate drops b without writeback (fault injection: the on-chip
	// copy is discarded so the next access must reload — and re-verify —
	// the block from memory).
	Invalidate(b arch.BlockID) (wasPresent, wasDirty bool)
}

// mirageMeta adapts a MIRAGE cache to the MetaCache contract.
type mirageMeta struct {
	c   *mirage.Cache
	hit arch.Cycles
}

func (m *mirageMeta) Access(b arch.BlockID, write bool) bool { return m.c.AccessW(b, write) }

func (m *mirageMeta) Insert(b arch.BlockID, dirty bool) (cache.Eviction, bool) {
	ev, ok := m.c.InsertReport(b, dirty)
	return cache.Eviction{Block: ev.Block, Dirty: ev.Dirty}, ok
}

func (m *mirageMeta) HitLatency() arch.Cycles { return m.hit }

func (m *mirageMeta) Invalidate(b arch.BlockID) (bool, bool) { return m.c.Invalidate(b) }

// Stats aggregates controller-level events.
type Stats struct {
	Reads             uint64
	Writes            uint64
	CounterHits       uint64
	CounterMisses     uint64
	TreeNodeLoads     uint64
	CounterOverflows  uint64
	TreeOverflows     uint64
	ReencryptedBlocks uint64
	RehashedBlocks    uint64
	TamperDetections  uint64
	CounterWritebacks uint64
	NodeWritebacks    uint64
	// FaultsInjected counts corruptions applied by an attached Injector
	// (one per corrupted block, so a row fault counts its whole blast
	// radius). Tests compare it against TamperDetections to prove no
	// injected corruption escaped verification.
	FaultsInjected uint64
}

// stored is one block's off-chip state: its ciphertext (plaintext in the
// Plain baseline) and its MAC, kept in one heap object so the hot path
// pays a single map lookup and works on the block in place instead of
// copying 64 bytes in and out of two maps.
type stored struct {
	ct  crypto.Block
	mac uint64
}

// zeroBlock is the all-zero plaintext that lazily materialized blocks
// encrypt. Read-only.
var zeroBlock crypto.Block

// Controller is the secure memory controller. Not safe for concurrent use.
type Controller struct {
	cfg     Config
	dram    *dram.DRAM
	meta    MetaCache
	setMeta *cache.Cache // nil when the metadata cache is randomized
	eng     *crypto.Engine
	ctrs    ctr.Scheme
	tree    itree.Tree
	store   map[arch.BlockID]*stored // off-chip backing store
	stats   Stats

	// loaded and work are per-access scratch slices (the tree-walk node
	// list and the dirty-eviction work list); reusing them keeps the
	// steady-state access path allocation-free.
	loaded []itree.NodeRef
	work   []arch.BlockID

	// Fault injection (nil in honest runs): inj is consulted before every
	// serviced access with the 1-based access ordinal, and the faults it
	// returns corrupt off-chip state before the access proceeds.
	inj       Injector
	accessSeq uint64

	// Tree-overflow fallout discovered during eviction handling, surfaced
	// in the next Write report.
	pendingTreeOverflow bool
}

// New wires a controller from its parts. The counter scheme and tree are
// injected so that every §IV design point (GC/MoC/SC × HT/SCT/SIT) runs on
// the same controller.
func New(cfg Config, scheme ctr.Scheme, tree itree.Tree) *Controller {
	c := &Controller{
		cfg:   cfg,
		dram:  dram.New(cfg.DRAM),
		eng:   crypto.New(cfg.Engine),
		ctrs:  scheme,
		tree:  tree,
		store: make(map[arch.BlockID]*stored),
	}
	if cfg.RandomizedMeta != nil {
		c.meta = &mirageMeta{c: mirage.New(*cfg.RandomizedMeta), hit: cfg.Meta.HitLatency}
	} else {
		c.setMeta = cache.New(cfg.Meta)
		c.meta = c.setMeta
	}
	return c
}

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// Meta exposes the set-associative metadata cache's geometry (attack
// construction and tests need it; mutating it directly would be cheating
// and nothing does). It returns nil when the metadata cache is randomized
// — there is no geometry to exploit, which is the §IX-B defence's point.
func (c *Controller) Meta() *cache.Cache { return c.setMeta }

// DRAM exposes the memory model (bank mapping for attack address choice).
func (c *Controller) DRAM() *dram.DRAM { return c.dram }

// Tree exposes the integrity tree (address arithmetic for attacks).
func (c *Controller) Tree() itree.Tree { return c.tree }

// Counters exposes the encryption counter scheme.
func (c *Controller) Counters() ctr.Scheme { return c.ctrs }

// ensureInit lazily materializes a block's ciphertext (zero plaintext) the
// first time it is touched, as if the secure region were zero-initialized
// at enclave build time. It returns the block's backing-store entry.
func (c *Controller) ensureInit(b arch.BlockID) *stored {
	if st, ok := c.store[b]; ok {
		return st
	}
	st := &stored{}
	v := c.ctrs.Value(b)
	c.eng.EncryptTo(&st.ct, &zeroBlock, b, v)
	st.mac = c.eng.MACOf(&st.ct, b, v)
	c.store[b] = st
	return st
}

// fetchCounter brings b's counter block on-chip, verifying it through the
// tree (Algorithm 2), and returns the updated time plus path information.
func (c *Controller) fetchCounter(now arch.Cycles, b arch.BlockID, rep *Report) arch.Cycles {
	cb := c.ctrs.CounterBlock(b)
	if c.meta.Access(cb, false) {
		rep.CounterHit = true
		c.stats.CounterHits++
		return now + c.meta.HitLatency()
	}
	c.stats.CounterMisses++
	// Load the counter block from memory.
	now = c.dram.Read(now, cb)
	// Walk the tree bottom-up to the first cached node (Algorithm 2). The
	// whole path's addresses are computable from the counter address, so
	// the memory controller overlaps the node reads across banks, but each
	// level's issue lags the previous by TreeStepDelay (dependent lookup
	// and verification pipelining) — this is what gives the per-level
	// latency steps of Fig. 6/7.
	loaded := c.loaded[:0]
	issue := now
	done := now
	for _, ref := range c.tree.Path(cb) {
		nb := c.tree.NodeBlockID(ref)
		if c.meta.Access(nb, false) {
			done += c.meta.HitLatency()
			break
		}
		start := issue + arch.Cycles(len(loaded))*c.cfg.TreeStepDelay
		if fin := c.dram.Read(start, nb); fin > done {
			done = fin
		}
		loaded = append(loaded, ref)
	}
	c.loaded = loaded
	now = done
	// Verify bottom-up: counter block against its leaf, then each loaded
	// node against its parent. One hash each.
	if !c.tree.VerifyCounterBlock(cb, c.ctrs.BlockBytes(cb)) {
		rep.Tampered = true
		c.stats.TamperDetections++
	}
	now += c.eng.HashLatency()
	for _, ref := range loaded {
		if !c.tree.VerifyNode(ref) {
			rep.Tampered = true
			c.stats.TamperDetections++
		}
		now += c.eng.HashLatency()
	}
	// Fill the metadata cache (counter block and loaded nodes), handling
	// any dirty evictions this causes.
	now = c.insertMeta(now, cb, false)
	for _, ref := range loaded {
		now = c.insertMeta(now, c.tree.NodeBlockID(ref), false)
	}
	rep.TreeLevelsLoaded = len(loaded)
	c.stats.TreeNodeLoads += uint64(len(loaded))
	return now
}

// Read services a last-level-cache read miss for block b, returning the
// decrypted plaintext and the access report. The caller (sim layer) passes
// its current time; the report's Latency covers only the controller part.
func (c *Controller) Read(now arch.Cycles, b arch.BlockID) (crypto.Block, Report) {
	start := now
	rep := Report{}
	c.stats.Reads++
	c.preAccess(b, false)
	if c.cfg.Plain {
		now += c.cfg.QueueDelay
		now = c.dram.Read(now, b)
		rep.Path = PathCounterHit // no metadata paths exist
		rep.Latency = now - start
		if st, ok := c.store[b]; ok {
			return st.ct, rep
		}
		return crypto.Block{}, rep
	}
	st := c.ensureInit(b)
	now += c.cfg.QueueDelay
	// Data fetch and (fixed-cost) MAC fetch+check proceed first.
	now = c.dram.Read(now, b)
	now += macLatency
	// Counter (and, if needed, tree) access.
	now = c.fetchCounter(now, b, &rep)
	if !rep.CounterHit {
		// OTP generation could not be overlapped with the data fetch.
		now += crypto.AESLatency
	}
	// Decrypt and authenticate (functionally real).
	v := c.ctrs.Value(b)
	if c.eng.MACOf(&st.ct, b, v) != st.mac {
		rep.Tampered = true
		c.stats.TamperDetections++
	}
	var plain crypto.Block
	c.eng.DecryptTo(&plain, &st.ct, b, v)
	rep.Path = PathCounterHit
	if !rep.CounterHit {
		if rep.TreeLevelsLoaded == 0 {
			rep.Path = PathTreeHit
		} else {
			rep.Path = PathTreeMiss
		}
	}
	rep.Latency = now - start
	return plain, rep
}

// Write services a write-back of block b with the given plaintext
// (Algorithm 1): the counter is fetched and incremented, overflow
// re-encrypts the counter-sharing group, and the new ciphertext is queued
// to memory.
func (c *Controller) Write(now arch.Cycles, b arch.BlockID, plain crypto.Block) Report {
	start := now
	rep := Report{}
	c.stats.Writes++
	c.preAccess(b, true)
	if c.cfg.Plain {
		now += c.cfg.QueueDelay
		st, ok := c.store[b]
		if !ok {
			st = &stored{}
			c.store[b] = st
		}
		st.ct = plain
		now = c.dram.Write(now, b)
		rep.Path = PathCounterHit
		rep.Latency = now - start
		return rep
	}
	st := c.ensureInit(b)
	now += c.cfg.QueueDelay
	// The counter must be on-chip to encrypt the outgoing data.
	now = c.fetchCounter(now, b, &rep)
	newVal, ov := c.ctrs.Increment(b)
	c.meta.Access(c.ctrs.CounterBlock(b), true) // counter block now dirty
	if ov != nil {
		// Counter overflow: re-encrypt the counter-sharing group
		// (Algorithm 1 line 5) — the long path of VUL-1. The burst is
		// hardware-managed: the memory controller posts the group's reads
		// and writes as a background sweep that occupies the affected banks
		// (delaying foreground reads, the Fig. 8 observable) while the
		// triggering write itself stalls only for the bookkeeping.
		rep.Overflow = true
		rep.Reencrypted = len(ov.Reencrypt)
		c.stats.CounterOverflows++
		c.stats.ReencryptedBlocks += uint64(len(ov.Reencrypt))
		burst := now
		var scratch crypto.Block
		for _, ch := range ov.Reencrypt {
			// Untouched group members materialize at their OLD seed (they
			// were conceptually encrypted with it since initialization);
			// initializing at the new seed and then decrypting with the
			// old would scramble them.
			gst, ok := c.store[ch.Block]
			if !ok {
				gst = &stored{}
				c.eng.EncryptTo(&gst.ct, &zeroBlock, ch.Block, ch.Old)
				gst.mac = c.eng.MACOf(&gst.ct, ch.Block, ch.Old)
				c.store[ch.Block] = gst
			}
			c.eng.DecryptTo(&scratch, &gst.ct, ch.Block, ch.Old)
			c.eng.EncryptTo(&gst.ct, &scratch, ch.Block, ch.New)
			gst.mac = c.eng.MACOf(&gst.ct, ch.Block, ch.New)
			c.dram.Background(burst, ch.Block, 1, c.cfg.DRAM.WriteLat+2*crypto.AESLatency)
		}
		now += overflowStall
	}
	// Encrypt and queue the target block.
	now += crypto.AESLatency
	c.eng.EncryptTo(&st.ct, &plain, b, newVal)
	st.mac = c.eng.MACOf(&st.ct, b, newVal)
	now += macLatency
	now = c.dram.Write(now, b)
	rep.Path = PathCounterHit
	if !rep.CounterHit {
		if rep.TreeLevelsLoaded == 0 {
			rep.Path = PathTreeHit
		} else {
			rep.Path = PathTreeMiss
		}
	}
	rep.Latency = now - start
	// Report tree overflow that dirty-eviction handling produced.
	if c.pendingTreeOverflow {
		rep.TreeOverflow = true
		c.pendingTreeOverflow = false
	}
	return rep
}
