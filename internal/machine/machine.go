// Package machine assembles complete simulated secure processors from
// design points — the builder behind the public metaleak facade. It is a
// reproduction of "MetaLeak: Uncovering Side
// Channels in Secure Processor Architectures Exploiting Metadata"
// (Chowdhuryy, Zheng, Yao — ISCA 2024) as a deterministic, cycle-level
// secure-processor simulator plus the full attack framework.
//
// The package exposes:
//
//   - design points (DesignPoint / ConfigSCT, ConfigHT, ConfigSGX, and the
//     §IV ablation variants) describing a complete secure processor;
//   - NewSystem, which builds the simulated machine (cores, caches, secure
//     memory controller, encryption counters, integrity tree);
//   - the MetaLeak attack primitives and end-to-end attacks re-exported
//     from the internal packages.
//
// All timing is simulated cycles — results are exactly reproducible and
// independent of the host (Go's GC and runtime make wall-clock timing side
// channels impractical, so the simulator is the faithful substrate; see
// DESIGN.md).
package machine

import (
	"metaleak/internal/arch"
	"metaleak/internal/cache"
	"metaleak/internal/crypto"
	"metaleak/internal/dram"
	"metaleak/internal/faults"
	"metaleak/internal/mirage"
	"metaleak/internal/secmem"
	"metaleak/internal/sim"
)

// CounterKind selects the encryption counter scheme of §IV-A.
type CounterKind string

// Counter schemes.
const (
	CounterGC  CounterKind = "GC"  // one global counter, whole-memory groups
	CounterMoC CounterKind = "MoC" // one counter per block
	CounterSC  CounterKind = "SC"  // split counters: major per page + 7-bit minors
)

// TreeKind selects the integrity tree design of §IV-C.
type TreeKind string

// Integrity trees.
const (
	TreeHT  TreeKind = "HT"  // 8-ary Bonsai Merkle hash tree
	TreeSCT TreeKind = "SCT" // split-counter tree (VAULT-style)
	TreeSIT TreeKind = "SIT" // SGX integrity tree (monolithic counters)
)

// DesignPoint describes one complete secure-processor configuration — the
// simulator equivalent of a row in Table I. Start from ConfigSCT,
// ConfigHT or ConfigSGX: NewSystem reads every field as given, so a zero
// Cores, SecurePages or MetaKB, an empty TreeArities, Counter or Tree,
// or a NoiseInterval without NoisePages fails loudly instead of building
// some other machine. The latency calibration is not a field; SGX
// selects it (DESIGN.md §4).
type DesignPoint struct {
	Name string

	Counter     CounterKind
	MinorBits   uint // SC/SCT minor width (Table I: 7)
	MoCBits     uint // MoC counter width (0: ctr's 56)
	GCBits      uint // GC counter width (0: ctr's 32)
	Tree        TreeKind
	TreeArities []int // stored-level fan-ins, leaf first

	SecurePages int // size of the protected region, in pages

	Cores int
	// NoiseInterval enables background traffic: one jittered burst roughly
	// every this many cycles (0 = off) over NoisePages pages.
	NoiseInterval arch.Cycles
	NoisePages    int
	Seed          uint64

	// SGX selects the SGX calibration (slower EPC path latencies, DESIGN.md
	// §4) and the privileged attacker model in the attack layer.
	SGX bool

	// Insecure builds the unprotected baseline: no encryption, MAC,
	// counters, or integrity tree. Used by the overhead ablation.
	Insecure bool

	// SocketOf assigns cores to sockets (nil: single socket); cores off
	// socket 0 pay a cross-socket hop to reach the shared LLC/MC.
	SocketOf []int

	// RandomizedMeta organizes the metadata cache as a MIRAGE instance
	// (the §IX-B defence deployed): conflict-based mEvict becomes
	// impossible; only volume-based eviction remains.
	RandomizedMeta bool

	// IsolatedDomains enables the §IX-C defence: the secure region is
	// split into this many fixed per-core domains, each covered by its own
	// integrity tree with a private on-chip root. Requires a version tree
	// (SCT/SIT) and SecurePages divisible by the domain count.
	IsolatedDomains int

	// FastCrypto swaps AES/GHASH for fast keyed mixers. Functional
	// properties (tamper detection) are preserved; use for very long
	// sweeps only.
	FastCrypto bool

	// Contract overrides the design point's derived leakage contract
	// (internal/contract grammar, DESIGN.md §13): what an attacker at
	// the memory controller may observe, which of it the design admits
	// leaking, and which channels its attack model requires to be live.
	// Empty derives the default contract for the design; "none" declares
	// a design that admits no leakage at all (every divergence is a
	// violation). Settable per sweep/hunt cell via `-set Contract=...`.
	Contract string

	// FaultSpec attaches a machine-level fault plan (internal/faults
	// grammar, machine: entries only): planned corruptions of off-chip
	// metadata that the controller's verification must catch. The plan
	// resolves against Seed, so it participates in reproducibility and
	// checkpoint fingerprints like every other design knob. NewSystem
	// panics on a malformed spec; the CLI validates specs up front.
	FaultSpec string

	MetaKB int // metadata cache size (Table I: 256 KB)
}

// ConfigSCT returns the paper's primary simulated design: split-counter
// encryption with a split-counter tree (VAULT), Table I top half.
func ConfigSCT() DesignPoint {
	return DesignPoint{
		Name:        "SCT",
		Counter:     CounterSC,
		MinorBits:   7,
		Tree:        TreeSCT,
		TreeArities: []int{32, 16, 16, 16, 16, 16},
		SecurePages: 1 << 24, // 64 GiB of protected memory
		Cores:       4,
		NoisePages:  1024,
		MetaKB:      256,
	}
}

// ConfigHT returns the hash-tree design (Rogers et al. BMT), Table I.
func ConfigHT() DesignPoint {
	dp := ConfigSCT()
	dp.Name = "HT"
	dp.Tree = TreeHT
	dp.TreeArities = []int{8, 8, 8, 8, 8, 8}
	return dp
}

// ConfigSGX returns the SGX hardware configuration: 56-bit monolithic
// encryption counters and the 8-ary 4-level SGX integrity tree over a
// 128 MiB EPC. SGX selects the slower measured latency bands of Fig. 7.
func ConfigSGX() DesignPoint {
	return DesignPoint{
		Name:        "SGX",
		Counter:     CounterMoC,
		MoCBits:     56,
		Tree:        TreeSIT,
		TreeArities: []int{8, 8, 8},
		SecurePages: 1 << 15, // 128 MiB EPC
		Cores:       4,
		NoisePages:  1024,
		SGX:         true,
		MetaKB:      64,
	}
}

// calibration is one platform's latency model: every cycle count of the
// machine that differs between the simulated designs of Table I and the
// SGX hardware bands of Fig. 7 (DESIGN.md §4).
type calibration struct {
	queueDelay arch.Cycles // memory-controller read-queue service time
	hashLat    arch.Cycles // one MAC or tree-node hash
	treeStep   arch.Cycles // per-level lag of the tree walk (Fig. 6/7 steps)
	l3Hit      arch.Cycles
	dram       dram.Config
}

// calibrationOf returns the SGX calibration when sgx is set, else the
// simulated one.
func calibrationOf(sgx bool) calibration {
	if !sgx {
		return calibration{queueDelay: 10, hashLat: 12, treeStep: 30, l3Hit: 29, dram: dram.DefaultConfig()}
	}
	d := dram.DefaultConfig()
	d.RowHit, d.RowMiss, d.RowConflict, d.WriteLat = 50, 70, 100, 50
	return calibration{queueDelay: 20, hashLat: 40, treeStep: 80, l3Hit: 49, dram: d}
}

// The metadata cache's associativity and hit latency are the same on
// every platform.
const (
	metaWays             = 8
	metaHit  arch.Cycles = 2
)

// MetaCacheConfig returns the set-associative metadata cache NewSystem
// builds for a design point (a RandomizedMeta MIRAGE holds as many
// blocks). The contract projector reads its set count from here.
func MetaCacheConfig(dp DesignPoint) cache.Config {
	return cache.Config{Name: "meta", SizeBytes: dp.MetaKB * 1024, Ways: metaWays, HitLatency: metaHit}
}

// DRAMConfig returns the memory system NewSystem builds for a design
// point; the contract projector reads its bank hash from here.
func DRAMConfig(dp DesignPoint) dram.Config { return calibrationOf(dp.SGX).dram }

// System is the assembled machine: the simulator plus handles to its
// parts and the design point that built it.
type System struct {
	*sim.System
	DP   DesignPoint
	Ctrl *secmem.Controller
}

// NewSystem builds the simulated secure processor for a design point.
func NewSystem(dp DesignPoint) *System {
	cal := calibrationOf(dp.SGX)
	scheme := buildScheme(dp)
	tree := buildTree(dp, cal.hashLat)

	mcCfg := secmem.Config{
		DRAM:          cal.dram,
		Meta:          MetaCacheConfig(dp),
		Engine:        crypto.Config{HashLatency: cal.hashLat, Fast: dp.FastCrypto},
		QueueDelay:    cal.queueDelay,
		TreeStepDelay: cal.treeStep,
		Plain:         dp.Insecure,
	}
	if dp.RandomizedMeta {
		blocks := dp.MetaKB * 1024 / arch.BlockSize
		mcCfg.RandomizedMeta = &mirage.Config{
			DataBlocks: blocks,
			Sets:       blocks / 16, // two skews of 8 base ways
			Seed:       dp.Seed + 99,
		}
	}
	mc := secmem.New(mcCfg, scheme, tree)
	if dp.FaultSpec != "" {
		if inj := faults.MustParse(dp.FaultSpec).Injector(dp.Seed); inj != nil {
			mc.SetInjector(inj)
		}
	}

	domainPages := 0
	if dp.IsolatedDomains > 0 {
		domainPages = dp.SecurePages / dp.IsolatedDomains
	}
	simCfg := sim.Config{
		Cores:         dp.Cores,
		L1:            cache.Config{Name: "L1", SizeBytes: 32 * 1024, Ways: 8, HitLatency: 1},
		L2:            cache.Config{Name: "L2", SizeBytes: 1024 * 1024, Ways: 4, HitLatency: 10},
		L3:            cache.Config{Name: "L3", SizeBytes: 8 * 1024 * 1024, Ways: 16, HitLatency: cal.l3Hit},
		SecurePages:   dp.SecurePages,
		DomainPages:   domainPages,
		SocketOf:      dp.SocketOf,
		NoiseInterval: dp.NoiseInterval,
		NoisePages:    dp.NoisePages,
		Seed:          dp.Seed,
	}
	return &System{System: sim.New(simCfg, mc), DP: dp, Ctrl: mc}
}
