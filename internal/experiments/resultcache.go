package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// The result cache is the content-addressed half of the sweep service:
// one completed cell's row, keyed by everything that determines it and
// nothing that doesn't. A sweep checkpoint is keyed by the whole grid's
// fingerprint, so it only ever serves an exact resubmission; the cell
// cache is keyed per cell, so *overlapping* grids — the same design
// points swept again with more reps, or submitted by a different client
// — reuse every cell they share and compute only the new ones. The file
// is the checkpoints' append log (appendlog.go) with its own format
// string: a header line, O(1) appends, and the crash signature confined
// to one torn trailing line that load salvages away.

// cellCacheFormat identifies the cache file layout; bump on changes.
const cellCacheFormat = "metaleak-cellcache/v1"

// CellFingerprint is the content address of one sweep cell's result: a
// hash of the cell's full identity — config, axis values, rep, and the
// derived machine seed — plus the per-cell bit budget and the
// design-point overrides, and *not* the cell's grid index. Everything
// runSweepCell reads is covered, so equal fingerprints compute
// byte-identical rows; the index is excluded, so the same design point
// at the same derived seed hashes equally wherever it lands in a grid.
func CellFingerprint(c SweepCell, bits int, set []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "cell/v1 %s %s %d %d %d %d bits=%d set=%q\n",
		c.Config, c.MinorLabel(), c.MetaKB, c.Noise, c.Rep, c.Seed, bits, set)
	return hex.EncodeToString(h.Sum(nil))
}

type cacheEntry struct {
	Key string
	Row SweepRow
}

// ResultCache is a content-addressed store of completed cell rows,
// optionally persisted as an append log (appendlog.go). Only clean
// measurements are cached — a failed cell may have failed transiently,
// and a later sweep deserves its retry. Safe for concurrent use.
//
// With a byte cap (OpenResultCacheCap) the cache garbage-collects
// itself: once its canonical footprint exceeds the cap, the oldest
// entries are evicted first — an evicted cell simply recomputes on its
// next request — and the file is compacted by the log's atomic rewrite,
// so a crash at any point leaves either the old complete file or the
// new complete file, never a mix.
type ResultCache struct {
	*appendLog
	mu        sync.Mutex
	rows      map[string]SweepRow
	order     []string         // insertion order, oldest first; eviction order
	sizes     map[string]int64 // canonical per-entry footprint (line + '\n')
	bytes     int64            // canonical footprint: header + all entry lines
	maxBytes  int64            // GC threshold; 0 = unbounded
	evictions int
}

// OpenResultCache opens (or starts) a persisted result cache at path,
// or a memory-only cache when path is empty. A missing or empty file
// begins an empty cache; an existing one must be well-formed apart from
// the append discipline's own crash signature — an unterminated
// trailing line, which is salvaged (cut off, reported via Discarded)
// instead of failing the open. The cache is unbounded; see
// OpenResultCacheCap for the size-capped variant.
func OpenResultCache(path string) (*ResultCache, error) {
	return OpenResultCacheCap(path, 0)
}

// OpenResultCacheCap is OpenResultCache with a garbage-collection cap:
// whenever the cache's canonical footprint exceeds maxBytes (0 =
// unbounded), the oldest entries are evicted until it fits and the file
// is compacted. An inherited over-cap file is trimmed at open.
func OpenResultCacheCap(path string, maxBytes int64) (*ResultCache, error) {
	rc := &ResultCache{rows: map[string]SweepRow{}, sizes: map[string]int64{}, maxBytes: maxBytes}
	log, err := openAppendLog(path, "result cache", checkpointHeader{Format: cellCacheFormat}, nil, func(line []byte) error {
		var e cacheEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if len(e.Key) != sha256.Size*2 {
			return fmt.Errorf("malformed key %q", e.Key)
		}
		if e.Row.Err != "" {
			return fmt.Errorf("cached row carries an error (%q) — only clean measurements belong here", e.Row.Err)
		}
		canon, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if old, ok := rc.sizes[e.Key]; ok {
			// Duplicates allowed, last wins — and the later line is the
			// younger one, so refresh its age for eviction purposes.
			rc.bytes -= old
			for i, k := range rc.order {
				if k == e.Key {
					rc.order = append(rc.order[:i], rc.order[i+1:]...)
					break
				}
			}
		}
		rc.rows[e.Key] = e.Row
		rc.sizes[e.Key] = int64(len(canon)) + 1
		rc.bytes += rc.sizes[e.Key]
		rc.order = append(rc.order, e.Key)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rc.appendLog = log
	rc.bytes += int64(len(log.header))
	// An inherited file over the cap trims immediately, so a restarted
	// service with a lowered cap converges without waiting for traffic.
	if err := rc.gcLocked(); err != nil {
		return nil, err
	}
	return rc, nil
}

// Get returns the cached row for a cell fingerprint. The returned row's
// grid index is meaningless (normalized to 0 on Put): the caller
// re-stamps row.SweepCell with its own grid's cell, which the key
// guarantees is identical in every field the measurement depends on.
func (rc *ResultCache) Get(key string) (SweepRow, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	row, ok := rc.rows[key]
	return row, ok
}

// Put records one completed cell. Rows carrying an error are ignored
// (a failure may be transient; never serve it from cache), as are keys
// already present (re-running a cached grid must not grow the file).
// Under a byte cap, an insert that pushes the footprint over it evicts
// the oldest entries and compacts the file. The cache keeps serving
// from memory after a persistence failure (Err) — persistence is an
// optimization, not correctness.
func (rc *ResultCache) Put(key string, row SweepRow) {
	if row.Err != "" {
		return
	}
	row.Index = 0 // grid-dependent; the key is grid-independent
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, ok := rc.rows[key]; ok {
		return
	}
	e := cacheEntry{Key: key, Row: row}
	line, err := json.Marshal(e)
	if err != nil {
		rc.fail(err)
		return
	}
	rc.rows[key] = row
	rc.sizes[key] = int64(len(line)) + 1
	rc.bytes += rc.sizes[key]
	rc.order = append(rc.order, key)
	rc.appendRecord(e)
	if err := rc.gcLocked(); err != nil {
		rc.fail(err)
	}
}

// Len returns the number of cached cells.
func (rc *ResultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.rows)
}

// Evictions returns how many entries the byte-cap GC has dropped.
func (rc *ResultCache) Evictions() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.evictions
}

// gcLocked evicts oldest-first until the footprint fits the cap, then
// compacts the file to exactly the surviving entries in age order. The
// newest entry always survives, even if it alone exceeds the cap —
// evicting it would make the cache useless at any cap smaller than one
// row.
func (rc *ResultCache) gcLocked() error {
	if rc.maxBytes <= 0 || rc.bytes <= rc.maxBytes {
		return nil
	}
	for len(rc.order) > 1 && rc.bytes > rc.maxBytes {
		key := rc.order[0]
		rc.order = rc.order[1:]
		rc.bytes -= rc.sizes[key]
		delete(rc.rows, key)
		delete(rc.sizes, key)
		rc.evictions++
	}
	entries := make([]any, len(rc.order))
	for i, key := range rc.order {
		entries[i] = cacheEntry{Key: key, Row: rc.rows[key]}
	}
	return rc.rewrite(entries)
}
