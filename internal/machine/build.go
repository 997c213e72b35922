package machine

import (
	"fmt"

	"metaleak/internal/arch"
	"metaleak/internal/crypto"
	"metaleak/internal/ctr"
	"metaleak/internal/itree"
)

// buildScheme constructs the encryption counter scheme for a design point.
func buildScheme(dp DesignPoint) ctr.Scheme {
	switch dp.Counter {
	case CounterSC:
		return ctr.NewSC(ctr.SCConfig{MinorBits: dp.MinorBits})
	case CounterMoC:
		return ctr.NewMoC(ctr.MoCConfig{Bits: dp.MoCBits})
	case CounterGC:
		return ctr.NewGC(ctr.GCConfig{Bits: dp.GCBits})
	default:
		panic(fmt.Sprintf("machine: unknown counter scheme %q", dp.Counter))
	}
}

// CounterBlockOf returns the design point's counter-block mapping: the
// metadata block holding a data block's encryption counter, as the
// scheme buildScheme builds computes it. The contract projector reads
// the mapping from here.
func CounterBlockOf(dp DesignPoint) func(arch.BlockID) arch.BlockID {
	if dp.Counter == CounterSC {
		return ctr.PageCounterBlock
	}
	return ctr.PackedCounterBlock
}

// counterBlocksFor computes how many counter blocks the tree must cover
// for the design point's secure region.
func counterBlocksFor(dp DesignPoint) int {
	if dp.Counter == CounterSC {
		return dp.SecurePages // one counter block per page
	}
	return dp.SecurePages * arch.BlocksPerPage / 8 // eight 64-bit counters/snapshots per block
}

// buildTree constructs the integrity tree for a design point. The hasher
// is a standalone engine with the same configuration the controller will
// use, so tree hashes and controller hashes agree.
func buildTree(dp DesignPoint, hashLat arch.Cycles) itree.Tree {
	h := crypto.New(crypto.Config{HashLatency: hashLat, Fast: dp.FastCrypto})
	nCB := counterBlocksFor(dp)
	var cfg itree.VTreeConfig
	switch dp.Tree {
	case TreeSCT:
		cfg = itree.VTreeConfig{Name: "SCT", Arities: dp.TreeArities, MinorBits: dp.MinorBits, CounterBlocks: nCB}
	case TreeSIT:
		cfg = itree.VTreeConfig{Name: "SIT", Arities: dp.TreeArities, MinorBits: 56, CounterBlocks: nCB}
	case TreeHT:
		if dp.IsolatedDomains > 0 {
			panic("machine: isolated domains require a version tree (SCT/SIT)")
		}
		return itree.NewHTree(itree.HTreeConfig{Arities: dp.TreeArities, CounterBlocks: nCB}, h)
	default:
		panic(fmt.Sprintf("machine: unknown tree %q", dp.Tree))
	}
	if dp.IsolatedDomains > 0 {
		return itree.NewPartitioned(cfg, dp.IsolatedDomains, h)
	}
	return itree.NewVTree(cfg, h)
}
