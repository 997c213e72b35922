package dispatch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// sampleFrames covers every frame type with representative payloads.
func sampleFrames() []Frame {
	return []Frame{
		{Type: FrameHello, Hello: &Hello{Worker: "w1", Proto: ProtoVersion}},
		{Type: FrameHello, Hello: &Hello{Worker: "w2", Proto: ProtoVersion, Token: "s3cret"}},
		{Type: FrameJob, Job: &Job{Spec: json.RawMessage(`{"Axes":{"Seeds":3},"Fingerprint":"abc"}`), Cells: 12}},
		{Type: FrameJob, Job: &Job{Spec: json.RawMessage(`{}`), Cells: 4, LeaseTimeout: 10 * time.Second}},
		{Type: FrameWant},
		{Type: FrameLease, Lease: &Lease{Cells: []int{7}}},
		{Type: FrameLease, Lease: &Lease{Cells: []int{0, 3, 11}}},
		{Type: FrameResult, Result: &Result{Cell: 7, Payload: json.RawMessage(`{"CovertAccuracy":0.97}`)}},
		{Type: FrameResult, Result: &Result{Cell: 3, Err: "panic: injected"}},
		{Type: FrameHeartbeat},
		{Type: FrameDrain},
		{Type: FrameFail, Fail: &Fail{Reason: "protocol version 2, coordinator speaks 1"}},
	}
}

// readFrame runs ReadFrame over data, as a peer reads its connection,
// and returns the frame with the number of bytes it consumed.
func readFrame(data []byte) (Frame, int, error) {
	rd := bytes.NewReader(data)
	br := bufio.NewReader(rd)
	f, err := ReadFrame(br)
	return f, len(data) - rd.Len() - br.Buffered(), err
}

// isTransportEOF reports whether err is how ReadFrame surfaces a stream
// that ends early: io.EOF before the first byte, io.ErrUnexpectedEOF
// inside a frame.
func isTransportEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		data, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %q: %v", f.Type, err)
		}
		got, n, err := readFrame(data)
		if err != nil {
			t.Fatalf("decode %q: %v", f.Type, err)
		}
		if n != len(data) {
			t.Errorf("%q consumed %d of %d bytes", f.Type, n, len(data))
		}
		if got.Type != f.Type {
			t.Errorf("round trip changed type: %q -> %q", f.Type, got.Type)
		}
		// Re-encoding the decode must be byte-identical (stable form).
		again, err := EncodeFrame(got)
		if err != nil {
			t.Fatalf("re-encode %q: %v", f.Type, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%q re-encode differs:\n%q\n%q", f.Type, data, again)
		}
	}
}

func TestFrameStream(t *testing.T) {
	var buf bytes.Buffer
	frames := sampleFrames()
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Fatalf("frame %d: %q, want %q", i, got.Type, want.Type)
		}
	}
	if _, err := ReadFrame(br); !errors.Is(err, io.EOF) {
		t.Fatalf("after stream end: %v, want EOF", err)
	}
}

func TestFrameValidate(t *testing.T) {
	bad := []Frame{
		{Type: "gossip"},   // unknown type
		{Type: FrameHello}, // missing payload
		{Type: FrameHello, Hello: &Hello{Proto: 1}},                                             // unnamed worker
		{Type: FrameWant, Fail: &Fail{Reason: "x"}},                                             // payload on a bare frame
		{Type: FrameLease, Lease: &Lease{}},                                                     // empty lease
		{Type: FrameLease, Lease: &Lease{Cells: []int{-1}}},                                     // negative cell
		{Type: FrameResult, Result: &Result{Cell: 1}},                                           // neither payload nor error
		{Type: FrameResult, Result: &Result{Cell: -1, Err: "x"}},                                // negative cell
		{Type: FrameResult, Result: &Result{Cell: 1, Payload: json.RawMessage(`{}`), Err: "x"}}, // both
		{Type: FrameResult, Result: &Result{Cell: 1, Payload: json.RawMessage(`{`)}},            // invalid payload JSON
		{Type: FrameJob, Job: &Job{Cells: -1}},                                                  // negative grid
		{Type: FrameJob, Job: &Job{Cells: 1, LeaseTimeout: -time.Second}},                       // negative lease timeout
		{Type: FrameFail, Fail: &Fail{}},                                                        // reasonless fail
		{Type: FrameHello, Hello: &Hello{Worker: "w"}, Fail: &Fail{Reason: "x"}},                // two payloads
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", f)
		}
		if _, err := EncodeFrame(f); err == nil {
			t.Errorf("EncodeFrame(%+v) accepted", f)
		}
	}
}

// TestDecodeMalformed: every malformed input is a structured *WireError
// naming its reason, never a panic; a stream cut short is a transport
// error (io.EOF or io.ErrUnexpectedEOF), ReadFrame's contract for a
// dead peer.
func TestDecodeMalformed(t *testing.T) {
	wire := func(body string) []byte {
		out := make([]byte, 4, 4+len(body))
		binary.BigEndian.PutUint32(out, uint32(len(body)))
		return append(out, body...)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, ""},
		{"short prefix", []byte{0, 0}, ""},
		{"zero length", wire(""), "zero-length frame"},
		{"oversize", func() []byte {
			d := wire("x")
			binary.BigEndian.PutUint32(d, MaxFrame+1)
			return d
		}(), "exceeds"},
		{"truncated body", wire("{\"Type\":\"want\"}\n")[:10], ""},
		{"no newline", wire(`{"Type":"want"}`), "not newline-terminated"},
		{"embedded newline", wire("{\"Type\":\n\"want\"}\n"), "embedded newline"},
		{"not json", wire("want me\n"), "not valid JSON"},
		{"unknown type", wire("{\"Type\":\"gossip\"}\n"), "unknown frame type"},
		{"contract violation", wire("{\"Type\":\"lease\"}\n"), "must carry exactly"},
	}
	for _, tc := range cases {
		_, _, err := readFrame(tc.data)
		if tc.want == "" {
			if !isTransportEOF(err) {
				t.Errorf("%s: err = %v, want io.EOF or io.ErrUnexpectedEOF", tc.name, err)
			}
			continue
		}
		var we *WireError
		if !errors.As(err, &we) {
			t.Errorf("%s: err = %v, want *WireError", tc.name, err)
			continue
		}
		if !strings.Contains(we.Error(), tc.want) {
			t.Errorf("%s: %q does not mention %q", tc.name, we.Error(), tc.want)
		}
	}
}

// FuzzProtocolRoundTrip mirrors FuzzTraceRoundTrip for the dispatcher
// wire codec, read through ReadFrame as every peer reads it: any input
// either decodes into a frame whose re-encoding is stable
// (encode∘decode is idempotent after the first pass), or fails with a
// structured *WireError or, cut short, a transport EOF — never a panic.
func FuzzProtocolRoundTrip(f *testing.F) {
	// Seed corpus: every frame type in wire form, junk, and truncation
	// cuts at the interesting boundaries (mid-prefix, mid-body, one byte
	// short) — the torn shapes the structured WireError exists to locate.
	for _, fr := range sampleFrames() {
		data, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		for _, cut := range []int{2, 4, 5, len(data) / 2, len(data) - 1} {
			if cut < len(data) {
				f.Add(append([]byte{}, data[:cut]...))
			}
		}
	}
	f.Add([]byte("not a frame at all"))
	f.Add([]byte{0, 0, 0, 1, '\n'})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := readFrame(data)
		if err != nil {
			var we *WireError
			if !errors.As(err, &we) && !isTransportEOF(err) {
				t.Fatalf("malformed input returned unstructured error %T: %v", err, err)
			}
			return // malformed input is fine, panicking is not
		}
		if n <= 4 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		e1, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		d2, n2, err := readFrame(e1)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if n2 != len(e1) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(e1))
		}
		e2, err := EncodeFrame(d2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("canonical form unstable:\n%q\n%q", e1, e2)
		}
		if d2.Type != fr.Type {
			t.Fatalf("round trip changed type: %q -> %q", fr.Type, d2.Type)
		}
	})
}
