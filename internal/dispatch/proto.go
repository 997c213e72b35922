// Package dispatch distributes a sweep's cell grid across worker
// processes: a coordinator owns the grid (and its checkpoint) and deals
// cells to workers over a length-prefixed JSONL protocol on TCP or unix
// sockets; workers pull cells, run them, and stream back one result per
// cell. Distribution is pure scheduling — which process ran a cell never
// appears in its result, so the merged output is byte-identical to a
// single-process run for any worker count, any steal schedule, and any
// mid-run worker death.
//
// Work placement is work-stealing over shards: each worker owns a deque
// of contiguous cell indices, leases one cell at a time from its head,
// and — when its own shard runs dry — steals half the *tail* of the
// largest remaining shard. A worker that disconnects or stops
// heartbeating has its leased cells revoked and re-dealt (each
// revocation consumes one attempt of the cell's lease budget, mirroring
// the runner's retry policy); a cell that exhausts the budget settles as
// a quarantined failure carrying every attempt's error.
package dispatch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// ProtoVersion is the wire-protocol version carried in every hello
// frame; a coordinator refuses workers speaking any other version.
// Version 2 added Hello.Token (shared-secret auth) and Job.LeaseTimeout
// (so a worker can reject a heartbeat interval the coordinator would
// reap).
const ProtoVersion = 2

// MaxFrame bounds one frame's body (length prefix excluded). A frame
// carries at most one job spec or one row, so anything near this size
// is corruption, not data.
const MaxFrame = 1 << 22

// FrameType names one protocol message.
type FrameType string

// Protocol frames. The conversation is worker-driven: hello/job is the
// handshake, then the worker loops want -> (lease | drain) -> result*.
const (
	// FrameHello is the worker's first frame: its name and protocol
	// version.
	FrameHello FrameType = "hello"
	// FrameJob is the coordinator's reply to hello: the opaque job spec
	// every cell is run against, and the grid size.
	FrameJob FrameType = "job"
	// FrameWant is the worker asking for work.
	FrameWant FrameType = "want"
	// FrameLease grants cells to the asking worker.
	FrameLease FrameType = "lease"
	// FrameResult reports one cell's outcome (payload or error).
	FrameResult FrameType = "result"
	// FrameHeartbeat is the worker's liveness beacon; it flows even
	// while a cell is computing.
	FrameHeartbeat FrameType = "heartbeat"
	// FrameDrain tells the worker there is no more work, ever: exit.
	FrameDrain FrameType = "drain"
	// FrameFail reports a fatal peer-level error (bad handshake, job
	// the worker cannot initialize) before closing the connection.
	FrameFail FrameType = "fail"
)

// Hello is the worker handshake payload.
type Hello struct {
	// Worker names the worker in logs and lease bookkeeping.
	Worker string
	// Proto is the sender's ProtoVersion.
	Proto int
	// Token is the shared-secret credential for coordinators that
	// require one (Options.Token); empty when the network is trusted.
	Token string `json:",omitempty"`
}

// Job is the coordinator's handshake reply.
type Job struct {
	// Spec is the opaque job description (for sweeps: the axes,
	// fingerprint, harness plan, and per-attempt deadline).
	Spec json.RawMessage
	// Cells is the grid size; leases stay in [0, Cells).
	Cells int
	// LeaseTimeout is the coordinator's silence budget: a worker whose
	// heartbeat interval is not comfortably under it would be reaped
	// mid-cell, so it must fail fast at handshake instead of attaching.
	// Zero when the coordinator predates version 2.
	LeaseTimeout time.Duration `json:",omitempty"`
}

// Lease grants cells to a worker.
type Lease struct {
	Cells []int
}

// Result is one cell's outcome: exactly one of Payload (success) or
// Err (failure) is set.
type Result struct {
	Cell    int
	Payload json.RawMessage `json:",omitempty"`
	Err     string          `json:",omitempty"`
}

// Fail is a fatal peer-level error.
type Fail struct {
	Reason string
}

// Frame is one protocol message: a type tag plus exactly the payload
// that type requires (none for want/heartbeat/drain).
type Frame struct {
	Type   FrameType
	Hello  *Hello  `json:",omitempty"`
	Job    *Job    `json:",omitempty"`
	Lease  *Lease  `json:",omitempty"`
	Result *Result `json:",omitempty"`
	Fail   *Fail   `json:",omitempty"`
}

// WireError is a structured protocol-decode failure: where in the input
// the frame went wrong and why. The codec returns it for every
// malformed input instead of panicking — the property FuzzProtocolRoundTrip
// hammers on.
type WireError struct {
	// Offset is the byte offset (within the data handed to the decoder)
	// where the problem was detected.
	Offset int
	// Reason describes the violation.
	Reason string
	// Err holds an underlying cause (e.g. the JSON error), when any.
	Err error
}

func (e *WireError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("dispatch: wire error at byte %d: %s: %v", e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("dispatch: wire error at byte %d: %s", e.Offset, e.Reason)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *WireError) Unwrap() error { return e.Err }

// Validate checks the frame's type/payload contract: a known type,
// exactly the payload that type requires, and payload invariants (a
// result is a payload xor an error, a lease is non-empty, ...).
func (f Frame) Validate() error {
	set := 0
	for _, p := range []bool{f.Hello != nil, f.Job != nil, f.Lease != nil, f.Result != nil, f.Fail != nil} {
		if p {
			set++
		}
	}
	need := func(ok bool, payload string) error {
		if !ok || set != 1 {
			return fmt.Errorf("frame %q must carry exactly its %s payload", f.Type, payload)
		}
		return nil
	}
	switch f.Type {
	case FrameHello:
		if err := need(f.Hello != nil, "hello"); err != nil {
			return err
		}
		if f.Hello.Worker == "" {
			return fmt.Errorf("hello frame names no worker")
		}
	case FrameJob:
		if err := need(f.Job != nil, "job"); err != nil {
			return err
		}
		if f.Job.Cells < 0 {
			return fmt.Errorf("job frame with negative cell count %d", f.Job.Cells)
		}
		if f.Job.LeaseTimeout < 0 {
			return fmt.Errorf("job frame with negative lease timeout %v", f.Job.LeaseTimeout)
		}
		if len(f.Job.Spec) > 0 && !json.Valid(f.Job.Spec) {
			return fmt.Errorf("job frame spec is not valid JSON")
		}
	case FrameLease:
		if err := need(f.Lease != nil, "lease"); err != nil {
			return err
		}
		if len(f.Lease.Cells) == 0 {
			return fmt.Errorf("lease frame grants no cells")
		}
		for _, c := range f.Lease.Cells {
			if c < 0 {
				return fmt.Errorf("lease frame grants negative cell %d", c)
			}
		}
	case FrameResult:
		if err := need(f.Result != nil, "result"); err != nil {
			return err
		}
		if f.Result.Cell < 0 {
			return fmt.Errorf("result frame for negative cell %d", f.Result.Cell)
		}
		if (len(f.Result.Payload) > 0) == (f.Result.Err != "") {
			return fmt.Errorf("result frame must carry exactly one of payload and error")
		}
		if len(f.Result.Payload) > 0 && !json.Valid(f.Result.Payload) {
			return fmt.Errorf("result frame payload is not valid JSON")
		}
	case FrameFail:
		if err := need(f.Fail != nil, "fail"); err != nil {
			return err
		}
		if f.Fail.Reason == "" {
			return fmt.Errorf("fail frame gives no reason")
		}
	case FrameWant, FrameHeartbeat, FrameDrain:
		if set != 0 {
			return fmt.Errorf("frame %q takes no payload", f.Type)
		}
	default:
		return fmt.Errorf("unknown frame type %q", f.Type)
	}
	return nil
}

// EncodeFrame renders the frame in wire form: a 4-byte big-endian body
// length, then the body — one JSON document terminated by '\n' (the
// JSONL discipline: strip the prefixes and a capture of the stream is
// line-per-frame greppable).
func EncodeFrame(f Frame) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("dispatch: encode: %w", err)
	}
	body, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("dispatch: encode: %w", err)
	}
	body = append(body, '\n')
	if len(body) > MaxFrame {
		return nil, fmt.Errorf("dispatch: encode: frame body %d bytes exceeds the %d limit", len(body), MaxFrame)
	}
	out := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(body)))
	return append(out, body...), nil
}

// decodeBody parses and validates one frame body (offsets in the
// returned WireError are body-relative plus the 4-byte prefix).
func decodeBody(body []byte) (Frame, error) {
	if body[len(body)-1] != '\n' {
		return Frame{}, &WireError{Offset: 4 + len(body) - 1, Reason: "frame body not newline-terminated"}
	}
	doc := body[:len(body)-1]
	if i := bytes.IndexByte(doc, '\n'); i >= 0 {
		// JSON string escapes mean a canonical frame never holds a raw
		// newline; an embedded one breaks the JSONL property.
		return Frame{}, &WireError{Offset: 4 + i, Reason: "embedded newline inside frame body"}
	}
	var f Frame
	if err := json.Unmarshal(doc, &f); err != nil {
		return Frame{}, &WireError{Offset: 4, Reason: "frame body is not valid JSON", Err: err}
	}
	if err := f.Validate(); err != nil {
		return Frame{}, &WireError{Offset: 4, Reason: err.Error()}
	}
	return f, nil
}

// WriteFrame writes one frame to w in wire form.
func WriteFrame(w io.Writer, f Frame) error {
	data, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadFrame reads one frame from r, blocking until a full frame (or an
// error) arrives. Decode failures are *WireError; transport failures
// (EOF, closed connection) pass through untouched so callers can
// distinguish a dead peer from a corrupt one.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n == 0 {
		return Frame{}, &WireError{Offset: 0, Reason: "zero-length frame"}
	}
	if n > MaxFrame {
		return Frame{}, &WireError{Offset: 0, Reason: fmt.Sprintf("frame length %d exceeds the %d limit", n, MaxFrame)}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, err
	}
	return decodeBody(body)
}
