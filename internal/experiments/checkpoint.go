package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// The checkpoint layer makes long sweeps restartable. A checkpoint file
// is an append log (appendlog.go): a header line naming the format and
// the sweep's fingerprint, then one completed SweepRow per line in
// completion order (duplicates allowed; the last line for a cell wins).
// Resume loads the complete lines, salvages a torn tail and re-runs its
// cell (deterministically reproducing the lost row).
//
// The fingerprint ties a checkpoint to the exact grid that wrote it:
// the hash covers every expanded cell (config, axis labels, rep, and the
// cell's derived machine seed), the per-cell bit budget, and the
// design-point overrides — including any machine-level fault plan, which
// travels as a FaultSpec override. Resuming with any other axes fails
// loudly instead of silently merging rows from unrelated grids.

// checkpointFormat identifies the file layout; bump on changes.
const checkpointFormat = "metaleak-sweep-checkpoint/v1"

// normalized applies the defaults Sweep applies, so fingerprints agree
// with what actually runs.
func (a SweepAxes) normalized() SweepAxes {
	if a.Bits <= 0 {
		a.Bits = DefaultSweepAxes().Bits
	}
	if a.Seeds <= 0 {
		a.Seeds = 1
	}
	return a
}

// Fingerprint identifies the sweep for checkpoint compatibility: a hash
// of the expanded cell list (axis labels, reps, and derived per-cell
// seeds — so the base seed is covered transitively), the per-cell bit
// budget, and the design-point overrides.
func (a SweepAxes) Fingerprint() string {
	a = a.normalized()
	h := sha256.New()
	fmt.Fprintf(h, "v1 seed=%d bits=%d set=%q\n", a.Seed, a.Bits, a.Set)
	for _, c := range a.Cells() {
		fmt.Fprintf(h, "%d %s %s %d %d %d %d\n",
			c.Index, c.Config, c.MinorLabel(), c.MetaKB, c.Noise, c.Rep, c.Seed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Checkpoint is the durable record of a sweep in progress: completed
// rows keyed by cell index, appended to disk as they settle.
type Checkpoint = gridCheckpoint[SweepCell, SweepRow]

// OpenCheckpoint opens (or starts) the checkpoint for a sweep. A
// missing or empty file begins an empty checkpoint; an existing one
// must carry the axes' fingerprint and well-formed rows belonging to
// the grid, or the open fails — a checkpoint from a different sweep is
// never merged. The one exception is the crash signature of the append
// discipline itself: an unterminated trailing line (a write torn by
// SIGKILL or power loss mid-append) is salvaged — logged via
// Discarded, cut off the file, and its cell left to re-run — instead
// of failing the whole resume.
func OpenCheckpoint(path string, axes SweepAxes) (*Checkpoint, error) {
	return openCheckpoint(path, axes.normalized().asGrid(nil))
}
