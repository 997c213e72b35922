package dram

import (
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
)

func TestRowHitFasterThanMiss(t *testing.T) {
	d := New(DefaultConfig())
	b := arch.BlockID(100)
	cold := d.Read(0, b)
	t2 := d.Read(cold, b) // same row, now open
	if t2-cold >= cold {
		t.Fatalf("row hit (%d) not faster than miss (%d)", t2-cold, cold)
	}
}

func TestRowConflictSlower(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	b1 := arch.BlockID(0)
	// A block in the same bank but a different row.
	var b2 arch.BlockID
	for cand := arch.BlockID(1); ; cand += arch.BlockID(cfg.RowBytes / arch.BlockSize) {
		if d.BankOf(cand) == d.BankOf(b1) && d.RowOf(cand) != d.RowOf(b1) {
			b2 = cand
			break
		}
	}
	t1 := d.Read(0, b1)
	t2 := d.Read(t1, b2)
	lat2 := t2 - t1
	// Second access should pay a row conflict, costing more than a row hit.
	if lat2 <= cfg.RowHit+cfg.Bus {
		t.Fatalf("conflict latency %d not above row-hit %d", lat2, cfg.RowHit+cfg.Bus)
	}
}

func TestBankContentionDelaysRead(t *testing.T) {
	d := New(DefaultConfig())
	b := arch.BlockID(0)
	// Occupy the bank with a burst of accesses at time 0.
	var end arch.Cycles
	for i := 0; i < 10; i++ {
		end, _ = d.access(0, b, d.cfg.WriteLat)
	}
	// A read issued at time 0 to the same bank completes only after.
	done := d.Read(0, b)
	if done < end {
		t.Fatalf("read completed at %d before bank freed at %d", done, end)
	}
	// A read to a different bank is unaffected.
	other := arch.BlockID(0)
	for cand := arch.BlockID(1); ; cand++ {
		if d.BankOf(cand) != d.BankOf(b) {
			other = cand
			break
		}
	}
	d2 := New(DefaultConfig())
	fast := d2.Read(0, other)
	if fast >= done {
		t.Fatalf("independent bank read %d not faster than contended %d", fast, done)
	}
}

func TestWriteMerging(t *testing.T) {
	d := New(DefaultConfig())
	b := arch.BlockID(7)
	d.Write(0, b)
	d.Write(1, b)
	d.Write(2, b)
	if d.PendingWrites() != 1 {
		t.Fatalf("writes did not merge: %d pending", d.PendingWrites())
	}
	if d.Stats().WriteMerges != 2 {
		t.Fatalf("merge count = %d", d.Stats().WriteMerges)
	}
}

func TestWriteQueueForcedDrain(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	for i := 0; i < cfg.WriteQueueDepth+1; i++ {
		d.Write(arch.Cycles(i), arch.BlockID(i*997)) // distinct blocks
	}
	if d.PendingWrites() > cfg.WriteQueueDepth {
		t.Fatalf("queue exceeded depth: %d", d.PendingWrites())
	}
	if d.Stats().Drains == 0 {
		t.Fatal("no forced drain happened")
	}
}

func TestRefreshNoise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEvery = 1000
	cfg.RefreshPenalty = 50
	d := New(cfg)
	d.Read(1500, arch.BlockID(1))
	if d.Stats().Refreshes != 1 {
		t.Fatalf("refreshes = %d", d.Stats().Refreshes)
	}
}

// Property: completion time never precedes issue time, and consecutive
// reads to one bank never complete out of order.
func TestQuickMonotoneCompletion(t *testing.T) {
	d := New(DefaultConfig())
	var last arch.Cycles
	f := func(raw uint16, gap uint8) bool {
		b := arch.BlockID(raw)
		issue := last + arch.Cycles(gap)
		done := d.Read(issue, b)
		if done < issue {
			return false
		}
		if d.BankBusyUntil(d.BankOf(b)) > done {
			return false
		}
		last = issue
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: all banks are reachable, i.e. the XOR bank hash does not
// degenerate (every bank index appears for some block).
func TestBankHashCoversAllBanks(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	seen := make(map[int]bool)
	for b := arch.BlockID(0); b < 1<<16; b += 64 {
		seen[d.BankOf(b)] = true
	}
	if len(seen) != cfg.Banks() {
		t.Fatalf("bank hash reaches %d/%d banks", len(seen), cfg.Banks())
	}
}

func TestPageSharesBank(t *testing.T) {
	d := New(DefaultConfig())
	p := arch.PageID(42)
	bank := d.BankOf(p.Block(0))
	for i := 1; i < arch.BlocksPerPage; i++ {
		if d.BankOf(p.Block(i)) != bank {
			t.Fatalf("block %d of page in bank %d != %d", i, d.BankOf(p.Block(i)), bank)
		}
	}
}

func TestBackgroundOccupiesBankOnly(t *testing.T) {
	d := New(DefaultConfig())
	b := arch.BlockID(0)
	// Post a long background burst at t=0.
	for i := 0; i < 20; i++ {
		d.Background(0, b, 1, 100)
	}
	// A read to the same bank at t=0 waits behind the burst...
	busy := d.BankBusyUntil(d.BankOf(b))
	if busy < 2000 {
		t.Fatalf("burst occupied only %d cycles", busy)
	}
	done := d.Read(0, b)
	if done < busy {
		t.Fatalf("read completed at %d inside the burst window ending %d", done, busy)
	}
	// ...while a different bank is free.
	var other arch.BlockID
	for cand := arch.BlockID(1); ; cand++ {
		if d.BankOf(cand) != d.BankOf(b) {
			other = cand
			break
		}
	}
	if fast := d.Read(0, other); fast >= busy {
		t.Fatalf("independent bank delayed by background burst: %d", fast)
	}
}

func TestDrainServicesOldestFirst(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Fill the queue exactly; record the first-enqueued block's bank.
	first := arch.BlockID(7)
	d.Write(0, first)
	for i := 1; i < cfg.WriteQueueDepth; i++ {
		d.Write(0, arch.BlockID(1000+i*997))
	}
	if d.PendingWrites() != cfg.WriteQueueDepth {
		t.Fatalf("queue depth %d", d.PendingWrites())
	}
	// Next write forces a drain of the front batch, which contains first.
	d.Write(0, arch.BlockID(999999))
	if d.BankBusyUntil(d.BankOf(first)) == 0 {
		t.Fatal("oldest write not serviced by forced drain")
	}
}

// TestWriteQueueSteadyStateAllocs pins the write queue to its array:
// once it has filled, writes that force drains allocate nothing.
func TestWriteQueueSteadyStateAllocs(t *testing.T) {
	d := New(DefaultConfig())
	next := arch.BlockID(0)
	write := func() {
		d.Write(0, next*997)
		next++
	}
	writes := func() {
		for i := 0; i < 16*d.cfg.WriteQueueDepth; i++ {
			write()
		}
	}
	writes()
	// AllocsPerRun rounds down, so each run is a thousand writes.
	if avg := testing.AllocsPerRun(20, writes); avg != 0 {
		t.Fatalf("%d writes allocate %.0f objects, want 0", 16*d.cfg.WriteQueueDepth, avg)
	}
}

// backgroundPerBlock is the reference for Background's run form: the
// burst posted one block at a time, one bank access each.
func backgroundPerBlock(d *DRAM, now arch.Cycles, first arch.BlockID, n int, occupancy arch.Cycles) {
	for i := 0; i < n; i++ {
		d.access(now, first+arch.BlockID(i), occupancy)
	}
}

// TestBackgroundRunMatchesPerBlock is the differential check of the
// closed-form burst: from random bank state (open rows, busy horizons,
// queued writes), a run posted through Background must leave the same
// statistics, the same bank horizons, and the same completion time for a
// later read to every bank as the per-block reference loop.
func TestBackgroundRunMatchesPerBlock(t *testing.T) {
	rng := arch.NewRNG(0xb0257)
	for trial := 0; trial < 400; trial++ {
		cfg := DefaultConfig()
		if trial%2 == 1 {
			cfg.RowBytes = 512 // 8 blocks a row: many row crossings
		}
		cfg.RefreshEvery = arch.Cycles(rng.Intn(2) * 5000)
		cfg.RefreshPenalty = 200
		perRow := cfg.RowBytes / arch.BlockSize
		occupancies := []arch.Cycles{0, cfg.RowHit - 1, cfg.RowHit, cfg.RowHit + 1, 4 * cfg.RowHit}
		occupancy := occupancies[rng.Intn(len(occupancies))]

		runForm, ref := New(cfg), New(cfg)
		for _, d := range []*DRAM{runForm, ref} {
			state := arch.NewRNG(uint64(trial))
			for i := range d.banks {
				if state.Bool(0.7) {
					d.banks[i].openRow = int64(state.Intn(64))
				}
				d.banks[i].busyUntil = arch.Cycles(state.Intn(3000))
			}
			for i, n := 0, state.Intn(cfg.WriteQueueDepth+1); i < n; i++ {
				d.Write(arch.Cycles(state.Intn(1000)), arch.BlockID(state.Intn(64*perRow)))
			}
		}

		first := arch.BlockID(rng.Intn(64 * perRow))
		if rng.Bool(0.5) {
			first = first - first%arch.BlockID(perRow) + arch.BlockID(perRow-1-rng.Intn(2))
		}
		toRowEnd := perRow - int(first)%perRow
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 1
		case 1: // within one row
			n = 1 + rng.Intn(toRowEnd)
		case 2: // crossing one row boundary
			n = toRowEnd + 1 + rng.Intn(perRow)
		default: // spanning several rows
			n = toRowEnd + perRow*(1+rng.Intn(4)) + rng.Intn(perRow)
		}
		now := arch.Cycles(rng.Intn(3000))

		runForm.Background(now, first, n, occupancy)
		backgroundPerBlock(ref, now, first, n, occupancy)

		if runForm.Stats() != ref.Stats() {
			t.Fatalf("trial %d (first %d, n %d, occupancy %d): stats %+v, per-block %+v",
				trial, first, n, occupancy, runForm.Stats(), ref.Stats())
		}
		for i := range runForm.banks {
			if got, want := runForm.BankBusyUntil(i), ref.BankBusyUntil(i); got != want {
				t.Fatalf("trial %d (first %d, n %d, occupancy %d): bank %d busy until %d, per-block %d",
					trial, first, n, occupancy, i, got, want)
			}
		}
		readAt := now + arch.Cycles(rng.Intn(2000))
		for bank := 0; bank < cfg.Banks(); bank++ {
			b := firstBlockInBank(runForm, bank)
			if got, want := runForm.Read(readAt, b), ref.Read(readAt, b); got != want {
				t.Fatalf("trial %d (first %d, n %d, occupancy %d): read to bank %d done at %d, per-block %d",
					trial, first, n, occupancy, bank, got, want)
			}
		}
		if runForm.Stats() != ref.Stats() {
			t.Fatalf("trial %d: stats diverged after the reads", trial)
		}
	}
}

// divisionBankRow is the division-based row and bank formula that
// Config.RowOf and Config.BankOf compute with a shift and a mask: the
// reference for TestBankRowMatchDivision.
func divisionBankRow(c Config, b arch.BlockID) (bank int, row int64) {
	r := uint64(b) / uint64(c.RowBytes/arch.BlockSize)
	h := r ^ r>>5 ^ r>>10 ^ r>>17
	return int(h % uint64(c.Banks())), int64(r)
}

// TestBankRowMatchDivision checks the shift-and-mask row and bank against
// the division formula on random blocks, for the Table I geometry and the
// 8-blocks-per-row geometry of TestBackgroundRunMatchesPerBlock.
func TestBankRowMatchDivision(t *testing.T) {
	small := DefaultConfig()
	small.RowBytes = 512
	rng := arch.NewRNG(0xba4c)
	for _, cfg := range []Config{DefaultConfig(), small} {
		d := New(cfg)
		for i := 0; i < 20000; i++ {
			b := arch.BlockID(rng.Uint64())
			switch i % 4 {
			case 0: // near the data region
				b %= 1 << 24
			case 1: // the counter region
				b = arch.CounterBase.Block() + b%(1<<24)
			case 2: // the tree region
				b = arch.TreeBase.Block() + b%(1<<24)
			}
			bank, row := divisionBankRow(cfg, b)
			if got := d.BankOf(b); got != bank {
				t.Fatalf("%d B rows: block %#x in bank %d, division formula %d", cfg.RowBytes, uint64(b), got, bank)
			}
			if got := d.RowOf(b); got != row {
				t.Fatalf("%d B rows: block %#x in row %d, division formula %d", cfg.RowBytes, uint64(b), got, row)
			}
		}
	}
}

// TestNewRejectsNonPowerOfTwoGeometry checks that New refuses a row or a
// bank count that shift-and-mask cannot address, naming both values.
func TestNewRejectsNonPowerOfTwoGeometry(t *testing.T) {
	rows := DefaultConfig()
	rows.RowBytes = 3 * 1024 // 48 blocks a row
	banks := DefaultConfig()
	banks.BanksPerRank = 6 // 24 banks
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"blocks per row", rows, "dram: 48 blocks per row and 32 banks must both be powers of two"},
		{"banks", banks, "dram: 128 blocks per row and 24 banks must both be powers of two"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("New panicked with %v, want %q", got, tc.want)
				}
			}()
			New(tc.cfg)
		})
	}
}

func firstBlockInBank(d *DRAM, bank int) arch.BlockID {
	for b := arch.BlockID(0); ; b += arch.BlockID(d.cfg.blocksPerRow()) {
		if d.BankOf(b) == bank {
			return b
		}
	}
}

// PendingWrites is the tests' probe of the write queue depth.
func (d *DRAM) PendingWrites() int { return len(d.wq) }
