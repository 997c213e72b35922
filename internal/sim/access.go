package sim

import (
	"metaleak/internal/arch"
	"metaleak/internal/cache"
	"metaleak/internal/crypto"
	"metaleak/internal/secmem"
)

// AccessResult describes one demand access from a core's point of view.
type AccessResult struct {
	Latency arch.Cycles
	Report  secmem.Report // Path == PathCacheHit for on-chip hits
}

// access walks the exclusive hierarchy for the block. On a full miss the
// secure memory controller services the fill and its plaintext is compared
// against the architectural view (a mismatch would mean the functional
// encryption layer is broken — asserted in tests via TamperDetections).
func (s *System) access(core int, b arch.BlockID, write bool) (result AccessResult) {
	s.checkOwner(core, b)
	s.maybeNoise(core)
	s.accessSeq++
	defer func() { s.emitTrace(core, b, write, result) }()
	c := s.cores[core]
	var lat arch.Cycles

	lat += c.l1.HitLatency()
	if c.l1.Access(b, write) {
		s.now += lat
		return AccessResult{Latency: lat, Report: secmem.Report{Path: secmem.PathCacheHit, Latency: lat}}
	}
	lat += c.l2.HitLatency()
	if c.l2.Access(b, false) {
		// Exclusive hierarchy: promote to L1, demoting the L1 victim here.
		wasDirty := s.removeLine(c.l2, b)
		s.fillL1(c, b, wasDirty || write)
		s.now += lat
		return AccessResult{Latency: lat, Report: secmem.Report{Path: secmem.PathCacheHit, Latency: lat}}
	}
	// Leaving the core's private caches: remote-socket cores pay the
	// interconnect hop to reach the shared LLC / memory controller.
	lat += s.remotePenalty(core)
	lat += s.l3.HitLatency()
	if s.l3.Access(b, false) {
		wasDirty := s.removeLine(s.l3, b)
		s.fillL1(c, b, wasDirty || write)
		s.now += lat
		return AccessResult{Latency: lat, Report: secmem.Report{Path: secmem.PathCacheHit, Latency: lat}}
	}

	// Full miss: the secure memory controller services it.
	plain, rep := s.mc.Read(s.now+lat, b)
	if rep.Tampered {
		s.tampered++
	}
	// A fill enters the view only where the view has no entry. Untampered,
	// the fill then equals the zero block the view already reads, so only
	// a corrupted one leaves an entry.
	if _, ok := s.data[b]; !ok {
		s.setData(b, plain)
	}
	lat += rep.Latency
	s.fillL1(c, b, write)
	s.now += lat
	rep.Latency = lat
	return AccessResult{Latency: lat, Report: rep}
}

// removeLine pulls a block out of a cache, returning its dirty state.
func (s *System) removeLine(c *cache.Cache, b arch.BlockID) bool {
	_, dirty := c.Invalidate(b)
	return dirty
}

// fillL1 inserts a block into L1 and demotes evictions down the exclusive
// hierarchy: L1 victim -> L2, L2 victim -> L3, L3 victim -> memory (if
// dirty, through the secure write path).
func (s *System) fillL1(c *Core, b arch.BlockID, dirty bool) {
	if dirty {
		s.dirty[b] = true
	}
	ev1, has1 := c.l1.Insert(b, dirty)
	if !has1 {
		return
	}
	ev2, has2 := c.l2.Insert(ev1.Block, ev1.Dirty)
	if !has2 {
		return
	}
	ev3, has3 := s.l3.Insert(ev2.Block, ev2.Dirty)
	if !has3 {
		return
	}
	if ev3.Dirty {
		s.writeback(ev3.Block)
	}
}

// setData records a block's architectural contents. The view keeps no
// zero block: every reader takes a missing key as the zero block, so a
// zero fill or a zero store leaves no entry behind.
func (s *System) setData(b arch.BlockID, v crypto.Block) {
	if v == (crypto.Block{}) {
		delete(s.data, b)
		return
	}
	s.data[b] = v
}

// writeback pushes a dirty block's plaintext through the secure write
// path, returning the controller's report.
func (s *System) writeback(b arch.BlockID) secmem.Report {
	rep := s.mc.Write(s.now, b, s.data[b])
	if rep.Tampered {
		s.tampered++
	}
	delete(s.dirty, b)
	s.now += rep.Latency
	return rep
}

// ---------------------------------------------------------------------------
// Public memory operations.
// ---------------------------------------------------------------------------

// Read performs a demand load of the block, returning its plaintext
// contents and the access result.
func (s *System) Read(core int, b arch.BlockID) (crypto.Block, AccessResult) {
	res := s.access(core, b, false)
	return s.data[b], res
}

// LoadByte loads one byte.
func (s *System) LoadByte(core int, a arch.Addr) (byte, AccessResult) {
	blk, res := s.Read(core, a.Block())
	return blk[a.Offset()], res
}

// TimedRead is the attacker's measured load: it returns only the latency
// (the rdtscp-wrapped access of every cache attack).
func (s *System) TimedRead(core int, b arch.BlockID) arch.Cycles {
	return s.access(core, b, false).Latency
}

// Write performs a demand store of a full block.
func (s *System) Write(core int, b arch.BlockID, data crypto.Block) AccessResult {
	res := s.access(core, b, true)
	s.setData(b, data)
	return res
}

// StoreByte stores one byte.
func (s *System) StoreByte(core int, a arch.Addr, v byte) AccessResult {
	res := s.access(core, a.Block(), true)
	blk := s.data[a.Block()]
	blk[a.Offset()] = v
	s.setData(a.Block(), blk)
	return res
}

// Touch performs a read without returning data (victim instruction
// fetches and marker loads).
func (s *System) Touch(core int, b arch.BlockID) AccessResult {
	return s.access(core, b, false)
}

// Flush removes the block from the entire hierarchy, writing it back
// through the secure path if dirty — the cache-cleansing operation the
// threat model (§III) grants: victims flush their own secrets' lines, and
// attackers flush their own probe lines. Cross-domain flushes are rejected
// by page ownership like any access.
func (s *System) Flush(core int, b arch.BlockID) {
	s.FlushReport(core, b)
}

// FlushReport is Flush returning the memory controller's write-back
// report (ok=false when the line was clean and no write-back happened).
func (s *System) FlushReport(core int, b arch.BlockID) (secmem.Report, bool) {
	s.checkOwner(core, b)
	c := s.cores[core]
	dirty := false
	if p, d := c.l1.Invalidate(b); p {
		dirty = dirty || d
	}
	if p, d := c.l2.Invalidate(b); p {
		dirty = dirty || d
	}
	if p, d := s.l3.Invalidate(b); p {
		dirty = dirty || d
	}
	var rep secmem.Report
	wrote := false
	if dirty || s.dirty[b] {
		rep = s.writeback(b)
		wrote = true
		// An explicit flush that reaches memory is exactly what a
		// memory-bus observer sees (the §III write-through victim
		// model), so it joins the trace stream like a demand miss. This
		// is where write-path metadata effects — counter overflow above
		// all — become trace-visible; demand accesses only ever read
		// from the controller.
		s.accessSeq++
		s.emitTrace(core, b, true, AccessResult{Latency: rep.Latency, Report: rep})
	}
	s.now += 10 // clflush-like cost
	return rep, wrote
}

// FlushPage flushes every block of a page.
func (s *System) FlushPage(core int, p arch.PageID) {
	for i := 0; i < arch.BlocksPerPage; i++ {
		s.Flush(core, p.Block(i))
	}
}

// WriteThrough performs a store and immediately flushes it to memory —
// the persistent-memory programming model (§III) in which victim writes
// reach the MC promptly. The returned result carries the memory
// controller's write report (overflow events and the write-path latency).
func (s *System) WriteThrough(core int, b arch.BlockID, data crypto.Block) AccessResult {
	res := s.Write(core, b, data)
	rep, wrote := s.FlushReport(core, b)
	if wrote {
		rep.Latency += res.Latency
		res.Report = rep
		res.Latency = rep.Latency
	}
	return res
}

// Idle advances simulated time without memory activity.
func (s *System) Idle(d arch.Cycles) { s.now += d }

// maybeNoise runs the background process when its jittered timer expires:
// a short burst of reads/writes/flushes over its own pages. Jittered
// cycle-based scheduling (rather than access counting) prevents the noise
// from phase-locking with an attack loop's regular access pattern.
func (s *System) maybeNoise(requester int) {
	if s.cfg.NoiseInterval == 0 || s.inNoise {
		return
	}
	if requester == s.noiseCore || s.now < s.nextNoise {
		return
	}
	s.inNoise = true
	burst := 1 + s.rng.Intn(4)
	for i := 0; i < burst; i++ {
		p := s.noiseBase + arch.PageID(s.rng.Intn(s.cfg.NoisePages))
		b := p.Block(s.rng.Intn(arch.BlocksPerPage))
		if s.rng.Bool(0.3) {
			s.access(s.noiseCore, b, true)
			s.setData(b, crypto.Block{})
		} else {
			s.access(s.noiseCore, b, false)
		}
		// Flush often enough that the noise generates memory (and
		// metadata) traffic, not just cache hits.
		if s.rng.Bool(0.4) {
			s.Flush(s.noiseCore, b)
		}
	}
	iv := uint64(s.cfg.NoiseInterval)
	s.nextNoise = s.now + arch.Cycles(iv/2+s.rng.Uint64()%iv)
	s.inNoise = false
}
