// Package sim assembles the simulated machine: cores with private caches,
// a shared LLC, and the secure memory controller of package secmem, plus
// the page allocator and the deterministic background-noise generator.
//
// The cache hierarchy is exclusive (a block lives in exactly one of L1, L2,
// L3, or memory), which keeps write-back semantics exact with a single copy
// of every line. The threat model (§III) prohibits data sharing between
// distrusting processes, and the simulator enforces it: a page has one
// owner and only the owner's core may touch it, so no cross-core coherence
// is needed — exactly the regime in which MetaLeak operates.
//
// All time is simulated: the System owns a global cycle clock advanced by
// every access. TimedRead is the rdtscp-wrapped load of the attacker.
package sim

import (
	"fmt"

	"metaleak/internal/arch"
	"metaleak/internal/cache"
	"metaleak/internal/crypto"
	"metaleak/internal/secmem"
)

// Config parameterizes the machine around the memory controller.
type Config struct {
	Cores int
	L1    cache.Config
	L2    cache.Config
	L3    cache.Config

	// SecurePages bounds the allocatable secure region (it must match the
	// tree's counter-block coverage; the facade enforces this).
	SecurePages int

	// DomainPages, when non-zero, partitions the region into fixed
	// per-core domains of this many pages (the §IX-C isolation defence):
	// core c may only own frames in [c*DomainPages, (c+1)*DomainPages).
	DomainPages int

	// SocketOf assigns each core to a socket (nil: all on socket 0). The
	// memory controller and secure metadata live on socket 0; cores on
	// other sockets pay crossSocketLatency per off-core access — the
	// cross-socket setting of the paper's covert channels (§VI-A).
	SocketOf []int

	// NoiseInterval injects a background-traffic burst roughly every this
	// many cycles (0 disables noise). Bursts are jittered so they cannot
	// phase-lock with attack loops. Noise runs on the last core against
	// its own pages, perturbing the shared L3, metadata cache, and DRAM.
	NoiseInterval arch.Cycles
	// NoisePages is the background process's working set; New rejects
	// a NoiseInterval without one.
	NoisePages int

	Seed uint64
}

// crossSocketLatency is the hop an off-socket core pays per access
// that leaves its private caches.
const crossSocketLatency = 120

// Core is one processor core with its private (exclusive) L1 and L2.
type Core struct {
	l1 *cache.Cache
	l2 *cache.Cache
}

// System is the simulated machine.
type System struct {
	cfg   Config
	now   arch.Cycles
	cores []*Core
	l3    *cache.Cache
	mc    *secmem.Controller

	// data is the architectural plaintext view of memory. The controller
	// holds only ciphertext; this map is what programs read and write.
	// It holds non-zero blocks only (setData): a missing key reads as
	// the zero block.
	data map[arch.BlockID]crypto.Block
	// dirty tracks blocks whose cached copy differs from the encrypted
	// backing store.
	dirty map[arch.BlockID]bool

	alloc     allocator
	rng       *arch.RNG
	traceHook func(TraceEvent)
	accessSeq uint64
	noiseCore int
	noiseBase arch.PageID
	nextNoise arch.Cycles
	inNoise   bool
	tampered  uint64
}

// New builds a system around a pre-built secure memory controller.
func New(cfg Config, mc *secmem.Controller) *System {
	if cfg.Cores < 1 {
		panic("sim: need at least one core")
	}
	if cfg.NoiseInterval > 0 && cfg.NoisePages <= 0 {
		panic(fmt.Sprintf("sim: noise interval %d with no noise pages", cfg.NoiseInterval))
	}
	s := &System{
		cfg:   cfg,
		mc:    mc,
		l3:    cache.New(cfg.L3),
		data:  make(map[arch.BlockID]crypto.Block),
		dirty: make(map[arch.BlockID]bool),
		rng:   arch.NewRNG(cfg.Seed ^ 0x5157),
	}
	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, &Core{l1: cache.New(cfg.L1), l2: cache.New(cfg.L2)})
	}
	s.alloc.init(cfg.SecurePages)
	s.noiseCore = cfg.Cores - 1
	if cfg.NoiseInterval > 0 {
		s.noiseBase = s.allocRange(s.noiseCore, cfg.NoisePages)
		s.nextNoise = cfg.NoiseInterval
	}
	return s
}

// Now returns the current simulated time.
func (s *System) Now() arch.Cycles { return s.now }

// MC exposes the secure memory controller.
func (s *System) MC() *secmem.Controller { return s.mc }

// L3 exposes the shared last-level cache.
func (s *System) L3() *cache.Cache { return s.l3 }

// TamperDetections returns how many integrity violations the machine has
// flagged (the simulated machine would halt; we count instead so tests can
// assert both presence and absence).
func (s *System) TamperDetections() uint64 { return s.tampered }

// Core returns core i (diagnostics).
func (s *System) Core(i int) *Core { return s.cores[i] }

// ---------------------------------------------------------------------------
// Page allocation. Frames are handed out sequentially (the OS buddy
// allocator analogue); AllocFrame grants a *specific* frame, modelling the
// per-core free-list massaging of §VIII-A1 (unprivileged) or direct EPC
// placement control (privileged SGX attacker).
// ---------------------------------------------------------------------------

// allocator records frame ownership. Frames are never freed, so each
// domain keeps a cursor below which every frame is owned: AllocPage
// resumes from it instead of rescanning the domain from its first frame.
type allocator struct {
	limit  int
	owner  map[arch.PageID]int
	cursor map[arch.PageID]arch.PageID // domain's first frame -> its cursor
}

func (a *allocator) init(limit int) {
	a.limit = limit
	a.owner = make(map[arch.PageID]int)
	a.cursor = make(map[arch.PageID]arch.PageID)
}

// domainRange returns the frame range core may own ([0, limit) without
// isolation).
func (s *System) domainRange(core int) (lo, hi arch.PageID) {
	if s.cfg.DomainPages == 0 {
		return 0, arch.PageID(s.alloc.limit)
	}
	lo = arch.PageID(core * s.cfg.DomainPages)
	hi = lo + arch.PageID(s.cfg.DomainPages)
	if int(hi) > s.alloc.limit {
		hi = arch.PageID(s.alloc.limit)
	}
	return lo, hi
}

// AllocPage hands the lowest free frame (within the core's domain, when
// isolation is on) to the owner core.
func (s *System) AllocPage(core int) arch.PageID {
	lo, hi := s.domainRange(core)
	p := max(lo, s.alloc.cursor[lo])
	for ; p < hi; p++ {
		if _, taken := s.alloc.owner[p]; !taken {
			s.alloc.owner[p] = core
			s.alloc.cursor[lo] = p + 1
			return p
		}
	}
	panic("sim: secure region (or domain) exhausted")
}

// AllocFrame grants a specific frame (page-placement control). It reports
// an error if the frame is already owned, out of range, or — under the
// §IX-C isolation defence — outside the core's domain: not even a
// privileged attacker can place its pages in another domain's slice,
// because the per-domain trees make foreign frames unverifiable.
func (s *System) AllocFrame(core int, frame arch.PageID) error {
	if int(frame) >= s.alloc.limit {
		return fmt.Errorf("sim: frame %d outside secure region (%d pages)", frame, s.alloc.limit)
	}
	if lo, hi := s.domainRange(core); frame < lo || frame >= hi {
		return fmt.Errorf("sim: frame %d outside core %d's domain [%d,%d)", frame, core, lo, hi)
	}
	if o, taken := s.alloc.owner[frame]; taken {
		return fmt.Errorf("sim: frame %d already owned by core %d", frame, o)
	}
	s.alloc.owner[frame] = core
	return nil
}

// Owner returns the owning core of a frame (-1 if unallocated).
func (s *System) Owner(frame arch.PageID) int {
	if o, ok := s.alloc.owner[frame]; ok {
		return o
	}
	return -1
}

func (s *System) allocRange(core, n int) arch.PageID {
	first := s.AllocPage(core)
	for i := 1; i < n; i++ {
		s.AllocPage(core)
	}
	return first
}

// checkOwner panics on a cross-domain data access — the regime the threat
// model forbids, so hitting this is a bug in attack or victim code.
func (s *System) checkOwner(core int, b arch.BlockID) {
	if o, ok := s.alloc.owner[b.Page()]; !ok || o != core {
		panic(fmt.Sprintf("sim: core %d touched page %d owned by %d", core, b.Page(), s.Owner(b.Page())))
	}
}

// SecurePages returns the size of the allocatable secure region in pages.
func (s *System) SecurePages() int { return s.cfg.SecurePages }

// TraceEvent describes one demand access, delivered to the trace hook as
// it completes. Hooks must not touch the system re-entrantly.
type TraceEvent struct {
	Seq        uint64
	Now        arch.Cycles // completion time
	Core       int
	Block      arch.BlockID
	Write      bool
	Latency    arch.Cycles
	Path       secmem.Path
	TreeLevels int
	Overflow   bool // encryption or tree counter overflow during the access
}

// SetTraceHook installs (or, with nil, removes) a per-access observer.
func (s *System) SetTraceHook(fn func(TraceEvent)) { s.traceHook = fn }

// emitTrace reports a completed access to the hook, if any.
func (s *System) emitTrace(core int, b arch.BlockID, write bool, res AccessResult) {
	if s.traceHook == nil {
		return
	}
	s.traceHook(TraceEvent{
		Seq:        s.accessSeq,
		Now:        s.now,
		Core:       core,
		Block:      b,
		Write:      write,
		Latency:    res.Latency,
		Path:       res.Report.Path,
		TreeLevels: res.Report.TreeLevelsLoaded,
		Overflow:   res.Report.Overflow || res.Report.TreeOverflow,
	})
}

// remotePenalty returns the interconnect cost a core pays to reach the
// shared LLC and memory controller on socket 0.
func (s *System) remotePenalty(core int) arch.Cycles {
	if s.cfg.SocketOf == nil || core >= len(s.cfg.SocketOf) || s.cfg.SocketOf[core] == 0 {
		return 0
	}
	return crossSocketLatency
}
