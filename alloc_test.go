package metaleak

import (
	"runtime"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/crypto"
	"metaleak/internal/itree"
)

// TestSecureReadSteadyStateAllocs pins the steady-state secure read path
// (flush + path-2 read of a warmed block) at zero heap allocations per
// access. The hot loop — counter fetch, tree walk, GHASH MAC, decrypt —
// works entirely out of reusable controller and engine scratch state; a
// regression here shows up long before it is visible in ns/op.
func TestSecureReadSteadyStateAllocs(t *testing.T) {
	sys := NewSystem(ConfigSCT())
	p := sys.AllocPage(0)
	blk := p.Block(0)
	// Warm: materialize the block, its counter and tree path, and grow all
	// lazily-sized maps and scratch buffers past their steady-state size.
	for i := 0; i < 64; i++ {
		sys.Flush(0, blk)
		sys.Read(0, blk)
	}
	avg := testing.AllocsPerRun(200, func() {
		sys.Flush(0, blk)
		sys.Read(0, blk)
	})
	if avg > 0 {
		t.Fatalf("steady-state secure read allocates %.2f objects per access; want 0", avg)
	}
}

// TestNewSystemAllocs bounds what building a machine allocates: caches
// fill a set on its first insert and the frame allocator keeps a
// per-domain cursor, so a fresh machine costs a per-set slot array, not
// every line of every cache (built eagerly, those lines would take about
// 25,000 objects and 5.4 MB per machine).
func TestNewSystemAllocs(t *testing.T) {
	const maxObjects, maxBytes = 256, 512 << 10
	for _, dp := range []DesignPoint{ConfigSCT(), ConfigHT(), ConfigSGX()} {
		for _, noise := range []arch.Cycles{0, 2000} {
			dp.NoiseInterval = noise
			objects, bytes := allocsPerRun(20, func() { NewSystem(dp) })
			if objects > maxObjects || bytes > maxBytes {
				t.Errorf("%s, NoiseInterval %d: NewSystem allocates %.0f objects and %.0f bytes; want at most %d and %d",
					dp.Name, noise, objects, bytes, maxObjects, maxBytes)
			}
		}
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports bytes: the
// average heap objects and bytes one call of f allocates, after a
// warm-up call, on one P.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTreeOverflowAllocsConstant pins the host cost of a tree-counter
// overflow to a constant number of allocations, whatever the subtree
// size: once a subtree's nodes exist, re-hashing a leaf (33 blocks) and
// an L2 node (8,465 blocks) allocate the same, because the re-hash list
// is a handful of block runs in tree-owned scratch, not one entry per
// block.
func TestTreeOverflowAllocsConstant(t *testing.T) {
	// One-bit minors: after the first bump every further bump of the same
	// child overflows its parent's minor.
	tree := itree.NewVTree(itree.VTreeConfig{
		Name: "SCT", Arities: []int{32, 16, 16, 16}, MinorBits: 1, CounterBlocks: 2 * 32 * 16 * 16,
	}, crypto.New(crypto.Config{HashLatency: 12}))
	var contents [arch.BlockSize]byte
	cb := arch.CounterBase.Block() + 7
	overflowAllocs := func(name string, overflow func() *itree.Update) float64 {
		for i := 0; i < 4; i++ { // materialize the subtree and grow scratch
			overflow()
		}
		avg := testing.AllocsPerRun(50, func() {
			if up := overflow(); up == nil || !up.Overflow {
				t.Fatalf("%s: bump did not overflow", name)
			}
		})
		return avg
	}
	leaf := overflowAllocs("leaf", func() *itree.Update { return tree.WritebackCounterBlock(cb, contents) })
	l2 := overflowAllocs("L2", func() *itree.Update { return tree.WritebackNode(itree.NodeRef{Level: 1, Index: 0}) })
	if leaf != l2 || leaf > 1 {
		t.Fatalf("overflow allocations: leaf %.2f, L2 %.2f; want the same constant, at most 1 (the Update)", leaf, l2)
	}
}
