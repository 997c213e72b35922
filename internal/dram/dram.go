// Package dram models the main memory of the simulated machine: channels,
// ranks and banks with open-row policy, an FR-FCFS-approximating read path,
// and a 64-entry write queue with merging — the pieces of Table I's memory
// controller that MetaLeak's timing observables depend on.
//
// Two properties matter for the attacks and are modelled carefully:
//
//  1. Bank contention: a read issued to a bank that is busy (e.g. because a
//     counter-overflow re-encryption burst is draining into it) is delayed
//     until the bank frees up. This is the observable of MetaLeak-C
//     (Fig. 8: two latency bands ~2000 cycles apart).
//  2. Write buffering and merging: writes are not serviced immediately, and
//     back-to-back writes to the same block merge in the queue. The
//     attacker must flush the queue with redundant writes (§VI-B).
package dram

import (
	"metaleak/internal/arch"
)

// Config describes the DRAM geometry and timing. The defaults produced by
// DefaultConfig correspond to the dual-channel, 2 ranks/channel system of
// Table I.
type Config struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
	RowBytes     int // row buffer size per bank

	// Timing, in cycles.
	RowHit      arch.Cycles // CAS only
	RowMiss     arch.Cycles // activate + CAS (bank idle/precharged)
	RowConflict arch.Cycles // precharge + activate + CAS
	Bus         arch.Cycles // data transfer
	WriteLat    arch.Cycles // bank occupancy per serviced write

	WriteQueueDepth int // entries before a forced drain (Table I: 64)
	DrainBatch      int // writes drained per forced drain

	// RefreshEvery/RefreshPenalty inject periodic refresh delay as noise.
	// Zero disables refresh noise.
	RefreshEvery   arch.Cycles
	RefreshPenalty arch.Cycles
}

// DefaultConfig returns the Table I memory system.
func DefaultConfig() Config {
	return Config{
		Channels:        2,
		RanksPerChan:    2,
		BanksPerRank:    8,
		RowBytes:        8192,
		RowHit:          36,
		RowMiss:         66,
		RowConflict:     96,
		Bus:             4,
		WriteLat:        36,
		WriteQueueDepth: 64,
		DrainBatch:      16,
		RefreshEvery:    0,
		RefreshPenalty:  0,
	}
}

// Banks returns the total number of banks.
func (c Config) Banks() int { return c.Channels * c.RanksPerChan * c.BanksPerRank }

type bank struct {
	openRow   int64 // -1: precharged
	busyUntil arch.Cycles
}

type writeReq struct {
	block arch.BlockID
}

// Stats counts DRAM events.
type Stats struct {
	Reads       uint64
	Writes      uint64 // enqueued
	WriteMerges uint64
	RowHits     uint64
	RowMisses   uint64
	Drains      uint64
	Refreshes   uint64
}

// DRAM is the main memory model. Not safe for concurrent use.
type DRAM struct {
	cfg   Config
	banks []bank
	wq    []writeReq
	// wqSet indexes the blocks currently in wq so the merge check in Write
	// is a map probe instead of an O(depth) scan (merging guarantees at
	// most one queue entry per block, so set membership is exact).
	wqSet       map[arch.BlockID]struct{}
	stats       Stats
	nextRefresh arch.Cycles
}

// New builds a DRAM model.
func New(cfg Config) *DRAM {
	d := &DRAM{
		cfg:   cfg,
		banks: make([]bank, cfg.Banks()),
		wqSet: make(map[arch.BlockID]struct{}, cfg.WriteQueueDepth),
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	if cfg.RefreshEvery > 0 {
		d.nextRefresh = cfg.RefreshEvery
	}
	return d
}

// Config returns the DRAM configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a snapshot of the event counters.
func (d *DRAM) Stats() Stats { return d.stats }

func (d *DRAM) blocksPerRow() uint64 { return uint64(d.cfg.RowBytes / arch.BlockSize) }

// BankOf returns the bank index a block maps to. Row-granular
// interleaving with an XOR-based bank hash (standard in modern memory
// controllers) spreads nearby metadata regions across banks, while the 64
// blocks of a page still share a bank and (typically) a row — which is
// what makes re-encryption bursts serialize behind one bank.
func (d *DRAM) BankOf(b arch.BlockID) int {
	row := uint64(b) / d.blocksPerRow()
	h := row ^ row>>5 ^ row>>10 ^ row>>17
	return int(h % uint64(d.cfg.Banks()))
}

// RowOf returns the identity of the row a block maps to (used only for
// open-row comparisons, so the global row index serves).
func (d *DRAM) RowOf(b arch.BlockID) int64 {
	return int64(uint64(b) / d.blocksPerRow())
}

// SameRow reports whether two blocks share a physical DRAM row (same
// bank, same row): the blast radius of a row-level fault — a disturbed
// wordline corrupts neighbouring blocks together, not one at a time.
func (d *DRAM) SameRow(a, b arch.BlockID) bool {
	return d.RowOf(a) == d.RowOf(b) && d.BankOf(a) == d.BankOf(b)
}

// access performs one bank access starting no earlier than now and returns
// its completion time.
func (d *DRAM) access(now arch.Cycles, b arch.BlockID, occupancy arch.Cycles) arch.Cycles {
	bk := &d.banks[d.BankOf(b)]
	row := d.RowOf(b)
	start := now
	if bk.busyUntil > start {
		start = bk.busyUntil
	}
	var lat arch.Cycles
	switch {
	case bk.openRow == row:
		lat = d.cfg.RowHit
		d.stats.RowHits++
	case bk.openRow == -1:
		lat = d.cfg.RowMiss
		d.stats.RowMisses++
	default:
		lat = d.cfg.RowConflict
		d.stats.RowMisses++
	}
	if occupancy > lat {
		lat = occupancy
	}
	bk.openRow = row
	bk.busyUntil = start + lat
	return start + lat + d.cfg.Bus
}

// Read services a read for the block, returning its completion time. Reads
// have priority over buffered writes (FR-FCFS read-first approximation),
// but a bank already busy servicing earlier traffic delays the read — the
// key contention observable.
func (d *DRAM) Read(now arch.Cycles, b arch.BlockID) arch.Cycles {
	d.stats.Reads++
	now = d.maybeRefresh(now)
	if len(d.wq) >= d.cfg.WriteQueueDepth {
		now = d.drain(now, d.cfg.DrainBatch)
	}
	return d.access(now, b, 0)
}

// Write enqueues a write for the block. If a write to the same block is
// already pending the two merge. When the queue is full a batch of writes
// is drained into the banks first. The returned time is when the enqueue
// completes from the issuing side (not when data reaches the array).
func (d *DRAM) Write(now arch.Cycles, b arch.BlockID) arch.Cycles {
	d.stats.Writes++
	now = d.maybeRefresh(now)
	if _, pending := d.wqSet[b]; pending {
		d.stats.WriteMerges++
		return now + 1
	}
	if len(d.wq) >= d.cfg.WriteQueueDepth {
		now = d.drain(now, d.cfg.DrainBatch)
	}
	d.wq = append(d.wq, writeReq{block: b})
	d.wqSet[b] = struct{}{}
	return now + 1
}

// drain services up to n queued writes, occupying their banks.
func (d *DRAM) drain(now arch.Cycles, n int) arch.Cycles {
	if n > len(d.wq) {
		n = len(d.wq)
	}
	d.stats.Drains++
	end := now
	for i := 0; i < n; i++ {
		done := d.access(now, d.wq[i].block, d.cfg.WriteLat)
		if done > end {
			end = done
		}
		delete(d.wqSet, d.wq[i].block)
	}
	d.wq = d.wq[n:]
	return now // the issuing side does not stall for the drain itself
}

// BankBusyUntil exposes a bank's busy horizon: what the run-form
// differential test compares against its per-block reference.
//
//metalint:allow deadcode probe for TestBackgroundRunMatchesPerBlock and TestOverflowPathGolden
func (d *DRAM) BankBusyUntil(bankIdx int) arch.Cycles { return d.banks[bankIdx].busyUntil }

func (d *DRAM) maybeRefresh(now arch.Cycles) arch.Cycles {
	if d.cfg.RefreshEvery == 0 {
		return now
	}
	if now >= d.nextRefresh {
		d.stats.Refreshes++
		d.nextRefresh = now + d.cfg.RefreshEvery
		return now + d.cfg.RefreshPenalty
	}
	return now
}

// Background occupies the banks of the n consecutive blocks starting at
// first, no earlier than now, without reporting completion to the
// requester — the model for hardware-managed bursts (counter-overflow
// re-encryption, subtree re-hashing) that proceed behind the memory
// controller while execution continues. Foreground reads to the same
// bank are delayed until the burst drains past them.
//
// The burst is applied one DRAM row at a time, in closed form. A row's
// blocks share one bank, so the row's first block goes through access,
// which opens the row and leaves busyUntil >= now. Each of the row's
// k-1 remaining blocks is then a row hit starting at busyUntil and
// advancing it by max(RowHit, occupancy): exactly what k-1 further
// accesses would do, one block at a time.
func (d *DRAM) Background(now arch.Cycles, first arch.BlockID, n int, occupancy arch.Cycles) {
	hit := max(d.cfg.RowHit, occupancy)
	perRow := arch.BlockID(d.blocksPerRow())
	for n > 0 {
		k := min(n, int(perRow-first%perRow))
		//metalint:allow cycleleak fire-and-forget by design: the burst's completion time is invisible to the issuer, only bank occupancy matters
		d.access(now, first, occupancy)
		d.banks[d.BankOf(first)].busyUntil += arch.Cycles(k-1) * hit
		d.stats.RowHits += uint64(k - 1)
		first += arch.BlockID(k)
		n -= k
	}
}
