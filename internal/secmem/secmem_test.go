package secmem

import (
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/cache"
	"metaleak/internal/crypto"
	"metaleak/internal/ctr"
	"metaleak/internal/dram"
	"metaleak/internal/itree"
)

// build constructs a small SCT controller for tests: SC counters, a
// 3-level tree, and a tiny metadata cache so evictions are easy to force.
func build(metaKB int) (*Controller, *ctr.SC, *itree.VTree) {
	sc := ctr.NewSC(ctr.SCConfig{})
	eng := crypto.Config{AESLatency: 20, HashLatency: 12}
	h := crypto.New(eng)
	tree := itree.NewVTree(itree.VTreeConfig{
		Name: "SCT", Arities: []int{32, 16, 16}, MinorBits: 7, CounterBlocks: 32 * 16 * 16,
	}, h)
	cfg := Config{
		DRAM:   dram.DefaultConfig(),
		Meta:   cache.Config{Name: "meta", SizeBytes: metaKB * 1024, Ways: 8, HitLatency: 2},
		Engine: eng, QueueDelay: 10, MACLatency: 30,
	}
	return New(cfg, sc, tree), sc, tree
}

func TestReadPathsClassification(t *testing.T) {
	c, _, _ := build(256)
	b := arch.PageID(0).Block(0)
	_, rep := c.Read(0, b)
	if rep.Path != PathTreeMiss || rep.TreeLevelsLoaded == 0 {
		t.Fatalf("cold read path=%v levels=%d", rep.Path, rep.TreeLevelsLoaded)
	}
	_, rep = c.Read(1000, b)
	if rep.Path != PathCounterHit {
		t.Fatalf("warm read path=%v", rep.Path)
	}
	// A page whose counter block shares the (now cached) leaf node.
	b2 := arch.PageID(1).Block(0)
	_, rep = c.Read(2000, b2)
	if rep.Path != PathTreeHit {
		t.Fatalf("leaf-shared read path=%v levels=%d", rep.Path, rep.TreeLevelsLoaded)
	}
	// A page far away: its leaf misses but upper levels hit.
	b3 := arch.PageID(32 * 16).Block(0) // different L1 subtree
	_, rep = c.Read(3000, b3)
	if rep.Path != PathTreeMiss || rep.TreeLevelsLoaded == 0 || rep.TreeLevelsLoaded >= 3 {
		t.Fatalf("far read path=%v levels=%d", rep.Path, rep.TreeLevelsLoaded)
	}
}

func TestLatencyOrderingAcrossPaths(t *testing.T) {
	c, _, _ := build(256)
	b := arch.PageID(0).Block(0)
	_, cold := c.Read(0, b)
	_, warm := c.Read(10000, b)
	_, leafShared := c.Read(20000, arch.PageID(1).Block(0))
	if !(warm.Latency < leafShared.Latency && leafShared.Latency < cold.Latency) {
		t.Fatalf("band ordering violated: %d %d %d", warm.Latency, leafShared.Latency, cold.Latency)
	}
}

func TestWriteEncryptsAndReadDecrypts(t *testing.T) {
	c, _, _ := build(256)
	b := arch.PageID(2).Block(7)
	var plain crypto.Block
	copy(plain[:], "metaleak secure memory block")
	c.Write(0, b, plain)
	// Off-chip bytes must differ from plaintext.
	if c.store[b].ct == plain {
		t.Fatal("backing store holds plaintext")
	}
	got, rep := c.Read(1000, b)
	if got != plain {
		t.Fatal("decryption mismatch")
	}
	if rep.Tampered {
		t.Fatal("false tamper detection")
	}
}

func TestSpoofingDetected(t *testing.T) {
	c, _, _ := build(256)
	b := arch.PageID(3).Block(1)
	var plain crypto.Block
	plain[9] = 42
	c.Write(0, b, plain)
	c.TamperFlipBit(b, 13)
	_, rep := c.Read(1000, b)
	if !rep.Tampered {
		t.Fatal("bit-flip spoofing not detected")
	}
}

func TestSplicingDetected(t *testing.T) {
	c, _, _ := build(256)
	b1 := arch.PageID(4).Block(0)
	b2 := arch.PageID(4).Block(1)
	var p1, p2 crypto.Block
	p1[0], p2[0] = 1, 2
	c.Write(0, b1, p1)
	c.Write(100, b2, p2)
	c.TamperSplice(b1, b2)
	_, rep := c.Read(1000, b1)
	if !rep.Tampered {
		t.Fatal("splicing not detected")
	}
}

func TestReplayDetected(t *testing.T) {
	c, _, _ := build(256)
	b := arch.PageID(5).Block(0)
	var v1, v2 crypto.Block
	v1[0], v2[0] = 1, 2
	c.Write(0, b, v1)
	snap := c.Snapshot(b)
	c.Write(100, b, v2)  // counter advances
	c.TamperReplay(snap) // stale but self-consistent ciphertext+MAC
	_, rep := c.Read(1000, b)
	if !rep.Tampered {
		t.Fatal("replay not detected")
	}
}

func TestHonestTrafficNeverTampers(t *testing.T) {
	c, _, _ := build(8) // tiny metadata cache: force writebacks and refills
	now := arch.Cycles(0)
	var plain crypto.Block
	sets := c.Meta().Config().Sets()
	for i := 0; i < 400; i++ {
		// Pages chosen so their counter blocks collide in one metadata
		// cache set, forcing dirty evictions and lazy tree updates.
		b := arch.PageID((i % 20) * sets).Block(i % arch.BlocksPerPage)
		plain[0] = byte(i)
		rep := c.Write(now, b, plain)
		if rep.Tampered {
			t.Fatalf("false tamper on write %d", i)
		}
		now += rep.Latency + 50
		got, rrep := c.Read(now, b)
		if rrep.Tampered {
			t.Fatalf("false tamper on read %d", i)
		}
		if got[0] != byte(i) {
			t.Fatalf("data corruption at %d", i)
		}
		now += rrep.Latency + 50
	}
	if c.Stats().CounterWritebacks == 0 {
		t.Fatal("test never exercised counter writebacks; enlarge traffic")
	}
	if c.Stats().NodeWritebacks == 0 {
		t.Fatal("test never exercised node writebacks")
	}
}

func TestEncryptionCounterOverflowReencrypts(t *testing.T) {
	c, sc, _ := build(256)
	b := arch.PageID(6).Block(0)
	sibling := arch.PageID(6).Block(5)
	var sdata crypto.Block
	sdata[0] = 77
	c.Write(0, sibling, sdata)
	var plain crypto.Block
	var rep Report
	now := arch.Cycles(1000)
	for i := uint64(0); i <= sc.MinorMax(); i++ {
		rep = c.Write(now, b, plain)
		now += rep.Latency + 10
	}
	if !rep.Overflow {
		t.Fatal("no overflow reported")
	}
	if rep.Reencrypted != arch.BlocksPerPage-1 {
		t.Fatalf("re-encrypted %d blocks", rep.Reencrypted)
	}
	// Sibling data must survive re-encryption.
	got, rrep := c.Read(now, sibling)
	if rrep.Tampered || got != sdata {
		t.Fatal("sibling corrupted by group re-encryption")
	}
}

func TestOverflowWriteMuchSlower(t *testing.T) {
	c, sc, _ := build(256)
	b := arch.PageID(7).Block(0)
	var plain crypto.Block
	now := arch.Cycles(0)
	var normal, overflow arch.Cycles
	for i := uint64(0); i <= sc.MinorMax(); i++ {
		rep := c.Write(now, b, plain)
		if rep.Overflow {
			overflow = rep.Latency
		} else {
			normal = rep.Latency
		}
		now += rep.Latency + 10
	}
	if overflow < 4*normal {
		t.Fatalf("overflow write (%d) not >> normal write (%d)", overflow, normal)
	}
}

func TestTreeCounterOverflowViaWritebacks(t *testing.T) {
	// Force 2^7 writebacks of one counter block by cycling it through a
	// tiny metadata cache; the tree leaf minor must eventually overflow.
	c, sc, tree := build(8)
	target := arch.PageID(0)
	var plain crypto.Block
	now := arch.Cycles(0)
	overflows := func() uint64 { return c.Stats().TreeOverflows }
	start := overflows()
	// Each iteration: write target page (dirties counter), then thrash the
	// metadata cache set with other counter blocks to force writeback.
	sets := c.Meta().Config().Sets()
	for i := 0; i < int(tree.MinorMax())+2; i++ {
		rep := c.Write(now, target.Block(i%2), plain)
		now += rep.Latency + 10
		cbTarget := sc.CounterBlock(target.Block(0))
		for w := 1; w <= c.Meta().Config().Ways+1; w++ {
			p := arch.PageID(int(target) + w*sets)
			_, r := c.Read(now, p.Block(0))
			now += r.Latency + 10
			_ = cbTarget
		}
	}
	if overflows() == start {
		t.Fatal("tree counter never overflowed despite saturating writebacks")
	}
}

// TestStatefulFuzz drives a long pseudo-random sequence of reads, writes,
// flush-like refetches, and page hops through the controller and checks
// the two global invariants: every read returns the last-written data,
// and honest traffic never trips tamper detection — across counter
// overflows, metadata write-backs, and tree updates.
func TestStatefulFuzz(t *testing.T) {
	c, _, _ := build(8) // tiny metadata cache: maximal write-back churn
	rng := arch.NewRNG(0xF022)
	shadow := make(map[arch.BlockID]byte)
	now := arch.Cycles(0)
	pages := 40
	for i := 0; i < 5000; i++ {
		p := arch.PageID(rng.Intn(pages) * 16) // collide in metadata sets
		b := p.Block(rng.Intn(arch.BlocksPerPage))
		if rng.Bool(0.5) {
			// Writes concentrate on a hot set so encryption minors (128
			// writes/block) and tree minors (128 write-backs/block)
			// genuinely overflow during the run.
			p = arch.PageID(rng.Intn(3) * 16)
			b = p.Block(rng.Intn(3))
			v := byte(rng.Uint64())
			var data crypto.Block
			data[0] = v
			rep := c.Write(now, b, data)
			if rep.Tampered {
				t.Fatalf("op %d: false tamper on write", i)
			}
			shadow[b] = v
			now += rep.Latency + arch.Cycles(rng.Intn(50))
		} else {
			got, rep := c.Read(now, b)
			if rep.Tampered {
				t.Fatalf("op %d: false tamper on read", i)
			}
			if got[0] != shadow[b] {
				t.Fatalf("op %d: read %d want %d at block %v", i, got[0], shadow[b], b)
			}
			now += rep.Latency + arch.Cycles(rng.Intn(50))
		}
	}
	st := c.Stats()
	if st.CounterOverflows == 0 {
		t.Fatal("fuzz never overflowed an encryption counter; weaken it less")
	}
	if st.TreeOverflows == 0 {
		t.Fatal("fuzz never overflowed a tree counter")
	}
	if st.NodeWritebacks == 0 || st.CounterWritebacks == 0 {
		t.Fatal("fuzz never exercised lazy tree updates")
	}
}

// TestStatefulFuzzAllDesigns repeats a shorter fuzz on every counter
// scheme and tree combination the builder supports.
func TestStatefulFuzzAllDesigns(t *testing.T) {
	engCfg := crypto.Config{AESLatency: 20, HashLatency: 12}
	builds := []struct {
		name   string
		scheme ctr.Scheme
		tree   itree.Tree
	}{
		{"SC+SCT", ctr.NewSC(ctr.SCConfig{}), itree.NewVTree(itree.VTreeConfig{
			Name: "SCT", Arities: []int{32, 16, 16}, MinorBits: 7, CounterBlocks: 1 << 13,
		}, crypto.New(engCfg))},
		{"SC+HT", ctr.NewSC(ctr.SCConfig{}), itree.NewHTree(itree.HTreeConfig{
			Arities: []int{8, 8, 8, 8}, CounterBlocks: 1 << 13,
		}, crypto.New(engCfg))},
		{"MoC+SIT", ctr.NewMoC(ctr.MoCConfig{Bits: 56}), itree.NewVTree(itree.VTreeConfig{
			Name: "SIT", Arities: []int{8, 8, 8}, MinorBits: 56, CounterBlocks: 1 << 13 * 8,
		}, crypto.New(engCfg))},
		{"GC+SCT", ctr.NewGC(ctr.GCConfig{Bits: 10}), itree.NewVTree(itree.VTreeConfig{
			Name: "SCT", Arities: []int{32, 16, 16}, MinorBits: 7, CounterBlocks: 1 << 16,
		}, crypto.New(engCfg))},
	}
	for _, bc := range builds {
		t.Run(bc.name, func(t *testing.T) {
			c := New(Config{
				DRAM:          dram.DefaultConfig(),
				Meta:          cache.Config{Name: "meta", SizeBytes: 8 * 1024, Ways: 8, HitLatency: 2},
				Engine:        engCfg,
				QueueDelay:    10,
				MACLatency:    30,
				TreeStepDelay: 30,
			}, bc.scheme, bc.tree)
			rng := arch.NewRNG(uint64(len(bc.name)))
			shadow := make(map[arch.BlockID]byte)
			now := arch.Cycles(0)
			for i := 0; i < 1200; i++ {
				p := arch.PageID(rng.Intn(30) * 16)
				b := p.Block(rng.Intn(arch.BlocksPerPage))
				if rng.Bool(0.5) {
					var data crypto.Block
					data[0] = byte(i)
					if rep := c.Write(now, b, data); rep.Tampered {
						t.Fatalf("%s op %d: false tamper on write", bc.name, i)
					}
					shadow[b] = byte(i)
				} else {
					got, rep := c.Read(now, b)
					if rep.Tampered {
						t.Fatalf("%s op %d: false tamper on read", bc.name, i)
					}
					if got[0] != shadow[b] {
						t.Fatalf("%s op %d: data corruption", bc.name, i)
					}
				}
				now += 300
			}
		})
	}
}

// epochBuild constructs a controller over a whole-memory-re-key scheme
// (MoC or GC) with a tiny counter width so overflow is cheap to force.
func epochBuild(scheme ctr.Scheme) *Controller {
	eng := crypto.Config{AESLatency: 20, HashLatency: 12}
	h := crypto.New(eng)
	tree := itree.NewVTree(itree.VTreeConfig{
		Name: "SIT", Arities: []int{8, 8, 8}, MinorBits: 56, CounterBlocks: 512,
	}, h)
	cfg := Config{
		DRAM:   dram.DefaultConfig(),
		Meta:   cache.Config{Name: "meta", SizeBytes: 256 * 1024, Ways: 8, HitLatency: 2},
		Engine: eng, QueueDelay: 10, MACLatency: 30,
	}
	return New(cfg, scheme, tree)
}

// TestEpochRekeyCoversReadOnlyBlocks is the regression test for the epoch
// re-key staleness bug: a block that was only ever READ is materialized at
// the old epoch's seed, so a whole-memory re-key (MoC/GC counter overflow
// triggered by a different block) must re-encrypt it too. The buggy
// schemes enumerated only ever-written blocks, and the next read of the
// read-only block failed its MAC check — a spurious tamper detection with
// no attacker present.
func TestEpochRekeyCoversReadOnlyBlocks(t *testing.T) {
	cases := []struct {
		name   string
		scheme ctr.Scheme
	}{
		{"MoC", ctr.NewMoC(ctr.MoCConfig{Bits: 4})},
		{"GC", ctr.NewGC(ctr.GCConfig{Bits: 4})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := epochBuild(tc.scheme)
			ro := arch.PageID(0).Block(0) // read-only from here on
			w := arch.PageID(0).Block(8)  // lives in a different counter block
			plain, rep := c.Read(0, ro)
			if rep.Tampered {
				t.Fatal("tamper on first read")
			}
			var data crypto.Block
			copy(data[:], "epoch re-key probe")
			now := arch.Cycles(1000)
			overflowed := false
			for i := 0; i < 40 && !overflowed; i++ {
				wrep := c.Write(now, w, data)
				now += 100000
				overflowed = wrep.Overflow
			}
			if !overflowed {
				t.Fatal("counter never overflowed")
			}
			got, rep2 := c.Read(now, ro)
			if got != plain {
				t.Fatal("re-key scrambled a read-only block's plaintext")
			}
			if rep2.Tampered || c.Stats().TamperDetections != 0 {
				t.Fatalf("spurious tamper detections after epoch re-key: %d", c.Stats().TamperDetections)
			}
		})
	}
}
