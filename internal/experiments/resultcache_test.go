package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metaleak/internal/arch"
)

func sampleRow(idx, rep int) SweepRow {
	return SweepRow{
		SweepCell: SweepCell{
			Index: idx, Config: "sct", MinorBits: 7, MetaKB: 64,
			Noise: 0, Rep: rep, Seed: uint64(1000 + rep),
		},
		CovertAccuracy: 0.4 + float64(rep)/10, MonitorAccuracy: 0.9,
	}
}

// TestCellFingerprintGridIndependent: the content address covers every
// field the measurement depends on and excludes the grid index — the
// property that lets overlapping grids share cells.
func TestCellFingerprintGridIndependent(t *testing.T) {
	a := sampleRow(3, 1).SweepCell
	b := a
	b.Index = 17 // same design point landing elsewhere in a bigger grid
	if CellFingerprint(a, 8, nil) != CellFingerprint(b, 8, nil) {
		t.Error("grid index reached the fingerprint")
	}
	for name, mutate := range map[string]func(*SweepCell){
		"config": func(c *SweepCell) { c.Config = "sgx" },
		"minor":  func(c *SweepCell) { c.MinorBits = 6 },
		"meta":   func(c *SweepCell) { c.MetaKB = 256 },
		"noise":  func(c *SweepCell) { c.Noise = 8000 },
		"rep":    func(c *SweepCell) { c.Rep = 2 },
		"seed":   func(c *SweepCell) { c.Seed = 2 },
	} {
		m := a
		mutate(&m)
		if CellFingerprint(a, 8, nil) == CellFingerprint(m, 8, nil) {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
	if CellFingerprint(a, 8, nil) == CellFingerprint(a, 16, nil) {
		t.Error("bit budget did not change the fingerprint")
	}
	if CellFingerprint(a, 8, nil) == CellFingerprint(a, 8, []string{"FastCrypto=true"}) {
		t.Error("-set overrides did not change the fingerprint")
	}
}

// TestResultCacheRoundTrip: Put/Get through a persisted file, reload
// from disk, index normalization, and the refusal to cache failures.
func TestResultCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	rc, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	row := sampleRow(3, 1)
	key := CellFingerprint(row.SweepCell, 8, nil)
	rc.Put(key, row)

	bad := sampleRow(9, 2)
	bad.Err = "boom"
	rc.Put(CellFingerprint(bad.SweepCell, 8, nil), bad)
	if rc.Len() != 1 {
		t.Fatalf("cache holds %d rows, want 1 (failed row must not cache)", rc.Len())
	}
	got, ok := rc.Get(key)
	if !ok || got.Index != 0 || got.Rep != 1 || got.CovertAccuracy != row.CovertAccuracy {
		t.Fatalf("Get = (%+v, %v), want the put row with Index normalized to 0", got, ok)
	}
	if err := rc.Err(); err != nil {
		t.Fatal(err)
	}
	rc.Close()

	// Reload from disk: the persisted entry survives; re-putting it must
	// not grow the file.
	before := mustSize(t, path)
	rc2, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	if rc2.Len() != 1 || rc2.Discarded() != "" {
		t.Fatalf("reloaded cache: %d rows, discarded %q", rc2.Len(), rc2.Discarded())
	}
	if _, ok := rc2.Get(key); !ok {
		t.Fatal("persisted row missing after reload")
	}
	rc2.Put(key, row)
	if mustSize(t, path) != before {
		t.Error("re-putting a cached key grew the file")
	}
}

// TestResultCacheSalvagesTornLine: a crash mid-append leaves one
// unterminated trailing line; open cuts it off, reports it, and keeps
// every complete entry.
func TestResultCacheSalvagesTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	rc, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := sampleRow(0, 0), sampleRow(1, 1)
	k1 := CellFingerprint(r1.SweepCell, 8, nil)
	rc.Put(k1, r1)
	rc.Put(CellFingerprint(r2.SweepCell, 8, nil), r2)
	rc.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	if torn.Len() != 1 || torn.Discarded() == "" {
		t.Fatalf("salvage kept %d rows, discarded %q; want 1 row + a reported tear", torn.Len(), torn.Discarded())
	}
	if _, ok := torn.Get(k1); !ok {
		t.Error("complete entry lost in the salvage")
	}

	// A wrong-format file is refused outright, never "salvaged".
	bogus := filepath.Join(t.TempDir(), "bogus.jsonl")
	if err := os.WriteFile(bogus, []byte("{\"Format\":\"something-else/v9\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenResultCache(bogus); err == nil || !strings.Contains(err.Error(), cellCacheFormat) {
		t.Errorf("wrong-format open: %v, want a format refusal", err)
	}
}

// TestDispatchCacheServesResubmission: end-to-end through
// SweepDispatch — a populated cache serves an identical grid with zero
// workers attached, and OnRow tells cached from computed rows.
func TestDispatchCacheServesResubmission(t *testing.T) {
	ctx := context.Background()
	axes := SweepAxes{
		Configs:   []string{"sct"},
		MinorBits: []uint{7},
		MetaKB:    []int{64},
		Noise:     []arch.Cycles{0},
		Seeds:     2,
		Seed:      21,
		Bits:      8,
		Set:       []string{"SecurePages=16384", "FastCrypto=true"},
	}
	cache, err := OpenResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	first, err := runLocalDispatch(ctx, axes, SweepOptions{}, DispatchOptions{Cache: cache}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != len(first) {
		t.Fatalf("cache holds %d cells, want %d", cache.Len(), len(first))
	}

	var cached, computed int
	var hits []string
	again, err := runLocalDispatch(ctx, axes, SweepOptions{
		Log: func(format string, args ...any) { hits = append(hits, format) },
	}, DispatchOptions{
		Cache: cache,
		OnRow: func(_ SweepRow, fromCache bool) {
			if fromCache {
				cached++
			} else {
				computed++
			}
		},
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached != len(first) || computed != 0 {
		t.Fatalf("resubmission: %d cached + %d computed, want %d + 0", cached, computed, len(first))
	}
	if err := rowsIdentical(first, again); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, h := range hits {
		if strings.Contains(h, "served from cache") {
			served++
		}
	}
	if served != len(first) {
		t.Errorf("logged %d cache-served cells, want %d", served, len(first))
	}
}

// TestChaosServeInvariants runs the chaos driver's serve leg — flap
// recovery under supervision, cache-served resubmission, and
// overlapping-grid reuse — so `go test` covers what `metaleak chaos`
// gates in CI.
func TestChaosServeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six sweeps")
	}
	if err := ChaosServe(context.Background(), t.TempDir(), 0xC4A05); err != nil {
		t.Fatal(err)
	}
}

// TestResultCacheEviction: the byte-cap GC evicts oldest-first, keeps
// the footprint under the cap, compacts the file atomically (no .gc
// temp left behind, appends keep working afterwards), trims an
// inherited over-cap file at open, and never evicts the newest entry.
func TestResultCacheEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	unbounded, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 6)
	for i := range keys {
		row := sampleRow(i, i)
		keys[i] = CellFingerprint(row.SweepCell, 8, nil)
		unbounded.Put(keys[i], row)
	}
	if unbounded.Evictions() != 0 {
		t.Fatalf("unbounded cache evicted %d entries", unbounded.Evictions())
	}
	fullBytes := unbounded.Bytes()
	perEntry := (fullBytes - int64(len(`{"Format":"`+cellCacheFormat+`"}`)) - 1) / int64(len(keys))
	unbounded.Close()

	// Reopen with a cap that fits roughly half the entries: the oldest
	// half evicts at open (inherited over-cap file), newest survive.
	cap3 := fullBytes - 3*perEntry
	rc, err := OpenResultCacheCap(path, cap3)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Bytes() > cap3 {
		t.Errorf("footprint %d over the %d cap after open", rc.Bytes(), cap3)
	}
	if rc.Evictions() == 0 || rc.Len() >= len(keys) {
		t.Fatalf("inherited over-cap file not trimmed: %d entries, %d evictions", rc.Len(), rc.Evictions())
	}
	if _, ok := rc.Get(keys[0]); ok {
		t.Error("oldest entry survived the trim")
	}
	if _, ok := rc.Get(keys[len(keys)-1]); !ok {
		t.Error("newest entry evicted")
	}
	if _, err := os.Stat(path + ".gc"); !os.IsNotExist(err) {
		t.Errorf("compaction temp file left behind: %v", err)
	}

	// The compacted file must itself be a well-formed cache holding
	// exactly the survivors.
	survivors := rc.Len()
	reload, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if reload.Len() != survivors || reload.Discarded() != "" {
		t.Fatalf("compacted file reloads %d entries (discarded %q), want %d",
			reload.Len(), reload.Discarded(), survivors)
	}
	reload.Close()

	// Appends keep working after a compaction closed and renamed the
	// file out from under the append handle.
	extra := sampleRow(7, 7)
	ek := CellFingerprint(extra.SweepCell, 8, nil)
	rc.Put(ek, extra)
	if err := rc.Err(); err != nil {
		t.Fatal(err)
	}
	if _, ok := rc.Get(ek); !ok {
		t.Fatal("post-compaction put missing")
	}
	if rc.Bytes() > cap3 {
		t.Errorf("footprint %d over the %d cap after post-compaction put", rc.Bytes(), cap3)
	}
	rc.Close()

	// A cap smaller than any single row still keeps the newest entry:
	// an empty cache would make every cap smaller than one row useless.
	tiny, err := OpenResultCacheCap(filepath.Join(t.TempDir(), "tiny.jsonl"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tiny.Close()
	for i := 0; i < 3; i++ {
		row := sampleRow(i, i)
		tiny.Put(CellFingerprint(row.SweepCell, 8, nil), row)
		if tiny.Len() != 1 {
			t.Fatalf("tiny cache holds %d entries after put %d, want exactly the newest", tiny.Len(), i)
		}
	}
	last := sampleRow(2, 2)
	if _, ok := tiny.Get(CellFingerprint(last.SweepCell, 8, nil)); !ok {
		t.Error("tiny cache lost the newest entry")
	}
	if err := tiny.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestResultCacheEvictionSalvage: the cap and the torn-tail salvage
// compose — a crash mid-append on an over-cap file still opens, cuts
// the tear, then trims.
func TestResultCacheEvictionSalvage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	rc, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 4)
	for i := range keys {
		row := sampleRow(i, i)
		keys[i] = CellFingerprint(row.SweepCell, 8, nil)
		rc.Put(keys[i], row)
	}
	full := rc.Bytes()
	rc.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := OpenResultCacheCap(path, full/2)
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	if torn.Discarded() == "" {
		t.Error("tear not reported")
	}
	if torn.Bytes() > full/2 {
		t.Errorf("footprint %d over the %d cap", torn.Bytes(), full/2)
	}
	// keys[3] died in the tear; of the survivors the newest is keys[2].
	if _, ok := torn.Get(keys[2]); !ok {
		t.Error("newest complete entry lost")
	}
	if _, ok := torn.Get(keys[0]); ok {
		t.Error("oldest entry survived an over-cap open")
	}
}

func mustSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// Bytes returns the cache's canonical footprint: the file size a
// freshly compacted cache would occupy (header plus one line per
// entry). An append-only file with superseded duplicates can be
// larger until the next GC compaction rewrites it.
func (rc *ResultCache) Bytes() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.bytes
}
