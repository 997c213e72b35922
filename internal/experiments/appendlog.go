package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// The append log is the one file discipline under the sweep checkpoint,
// the hunt checkpoint and the result cache. A log is JSONL: a header
// line naming the format (and, for a checkpoint, the grid's
// fingerprint), then one record per line. Records are appended — O(1)
// each — and every line is written in a single Write ending in '\n',
// which makes the failure mode of a crash legible: the only damage a
// SIGKILL mid-append can do is one unterminated last line, the torn
// tail. Opening salvages around exactly that: complete lines load, a
// torn tail is reported by Discarded and cut off the file so appends
// resume cleanly. Damage anywhere else — a complete line that does not
// parse or does not belong — is not a crash signature and fails loudly,
// naming its line.

// checkpointHeader is every log's header line. The result cache's
// header carries only its Format; omitempty keeps it that one field.
type checkpointHeader struct {
	Format      string
	Fingerprint string `json:",omitempty"`
	Cells       int    `json:",omitempty"`
}

// appendLog is one open log. Safe for concurrent use.
type appendLog struct {
	mu        sync.Mutex
	path      string // "" keeps the log in memory: appends and rewrites are no-ops
	what      string // error prefix: "checkpoint" or "result cache"
	header    []byte // the header line, '\n' included
	f         *os.File
	appends   int
	tamper    func(path string, appendN int) bool
	crashed   bool   // simulated writer death (fault injection)
	discarded string // torn tail salvaged away at open
	err       error  // first persistence failure; appends stop after it
}

// openAppendLog opens (or starts) the log at path. A missing or empty
// file starts an empty log, and so does a file holding a single torn
// line (a crash before the header's append completed: nothing is
// salvageable, nothing is lost). Otherwise the header must carry hdr's
// Format and, when hdr has one, its Fingerprint — a mismatch fails with
// mismatch's error — and each complete, non-blank body line goes to
// load in file order; a load error fails the open, prefixed with the
// line's number.
func openAppendLog(path, what string, hdr checkpointHeader, mismatch func(file string) error, load func(line []byte) error) (*appendLog, error) {
	head, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	l := &appendLog{path: path, what: what, header: append(head, '\n')}
	if path == "" {
		return l, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) || (err == nil && len(data) == 0) {
		return l, nil
	}
	if err != nil {
		return nil, l.errorf("%w", err)
	}

	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		l.discarded = string(data)
		if err := os.Truncate(path, 0); err != nil {
			return nil, l.errorf("cutting torn header: %w", err)
		}
		return l, nil
	}
	var got checkpointHeader
	if err := json.Unmarshal(data[:nl], &got); err != nil || got.Format != hdr.Format {
		return nil, l.errorf("not a %s file", hdr.Format)
	}
	if hdr.Fingerprint != "" && got.Fingerprint != hdr.Fingerprint {
		return nil, mismatch(got.Fingerprint)
	}

	off := nl + 1
	rest := data[off:]
	for n := 2; len(rest) > 0; n++ {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			// The torn tail: salvage everything before it and cut it off.
			l.discarded = string(rest)
			if err := os.Truncate(path, int64(off)); err != nil {
				return nil, l.errorf("cutting torn line: %w", err)
			}
			break
		}
		line := rest[:i]
		off += i + 1
		rest = rest[i+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := load(line); err != nil {
			return nil, l.errorf("line %d: %w", n, err)
		}
	}
	return l, nil
}

func (l *appendLog) errorf(format string, args ...any) error {
	return fmt.Errorf("%s %s: "+format, append([]any{l.what, l.path}, args...)...)
}

// Discarded returns the torn tail salvaged away at open, if any —
// callers surface it as a warning so the data loss (exactly one
// re-runnable cell) is visible, not silent.
func (l *appendLog) Discarded() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.discarded
}

// Err returns the first persistence failure, if any. A simulated crash
// from the tamper hook is not a failure — it is the scenario under
// test.
func (l *appendLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close releases the append handle. The file needs no finalization —
// every append left it complete.
func (l *appendLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// setTamper installs the fault-injection hook: after every successful
// append it receives the file path and the 1-based append count, and a
// true return simulates the writing process dying — the file is left
// exactly as the tamperer arranged it and every later append is
// silently dropped, which is what death looks like to the file.
func (l *appendLog) setTamper(fn func(path string, appendN int) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tamper = fn
}

// fail records err as the log's persistence failure unless one is
// already recorded.
func (l *appendLog) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

// appendRecord writes v as one line, opening the file (and writing the
// header) on first use. Each line is a single Write ending in '\n', so
// the only state a crash can leave behind is a torn final line — the
// exact shape openAppendLog salvages. It reports whether the log took
// the record: false once a persistence failure or a simulated crash
// has stopped it.
func (l *appendLog) appendRecord(v any) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.crashed {
		return false
	}
	if l.path != "" {
		l.err = l.appendLocked(v)
	}
	return true
}

func (l *appendLog) appendLocked(v any) error {
	if l.f == nil {
		f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return l.errorf("%w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return l.errorf("%w", err)
		}
		if st.Size() == 0 {
			if _, err := f.Write(l.header); err != nil {
				f.Close()
				return l.errorf("%w", err)
			}
		}
		l.f = f
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return l.errorf("%w", err)
	}
	l.appends++
	if l.tamper != nil && l.tamper(l.path, l.appends) {
		l.crashed = true
		l.f.Close()
		l.f = nil
	}
	return nil
}

// rewrite replaces the file with the header plus one line per record
// via a sibling temp file renamed over the original. The rename is
// atomic, so a crash at any point leaves either the old complete file
// or the new complete file; either opens cleanly, and the torn-tail
// salvage never has to run on a rewrite. A memory-only or stopped log
// is left alone.
func (l *appendLog) rewrite(records []any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.path == "" || l.err != nil || l.crashed {
		return nil
	}
	buf := bytes.NewBuffer(append([]byte(nil), l.header...))
	for _, r := range records {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp := l.path + ".gc"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return l.errorf("compacting: %w", err)
	}
	if l.f != nil {
		l.f.Close()
		l.f = nil // the next append reopens the rewritten file
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return l.errorf("compacting: %w", err)
	}
	return nil
}
