package contract

import (
	"encoding/binary"
	"testing"
)

// obsRecord is the fuzz encoding of one Obs: its fields little-endian in
// declaration order, the bool as one byte's low bit. A trailing partial
// record is dropped.
const obsRecord = 21

func decodeObs(b []byte) []Obs {
	var out []Obs
	for ; len(b) >= obsRecord; b = b[obsRecord:] {
		out = append(out, Obs{
			Set:      binary.LittleEndian.Uint32(b),
			Bank:     binary.LittleEndian.Uint16(b[4:]),
			Path:     b[6],
			Tree:     b[7],
			Overflow: b[8]&1 == 1,
			Lat:      binary.LittleEndian.Uint32(b[9:]),
			Time:     binary.LittleEndian.Uint64(b[13:]),
		})
	}
	return out
}

func encodeObs(obs []Obs) []byte {
	out := make([]byte, 0, len(obs)*obsRecord)
	for _, o := range obs {
		var ovf byte
		if o.Overflow {
			ovf = 1
		}
		out = binary.LittleEndian.AppendUint32(out, o.Set)
		out = binary.LittleEndian.AppendUint16(out, o.Bank)
		out = append(out, o.Path, o.Tree, ovf)
		out = binary.LittleEndian.AppendUint32(out, o.Lat)
		out = binary.LittleEndian.AppendUint64(out, o.Time)
	}
	return out
}

// sampleObs is a deterministic observation stream that exercises every
// component.
func sampleObs(n int) []Obs {
	out := make([]Obs, n)
	for i := range out {
		out[i] = Obs{
			Set:      uint32(i % 7),
			Bank:     uint16(i % 3),
			Path:     uint8(1 + i%4),
			Tree:     uint8(i % 3),
			Overflow: i%11 == 0,
			Lat:      uint32(i % 5),
			Time:     uint64(100 * i),
		}
	}
	return out
}

// interleaveObs merges two streams by alternating observations — the
// attacker/victim co-schedule shape.
func interleaveObs(a, b []Obs) []Obs {
	var out []Obs
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// FuzzObsDiff drives the comparator behind every hunt verdict with
// arbitrary observation-stream pairs and checks its algebra:
// reflexivity (a stream never diverges from itself), symmetry up to the
// length labels, bounds on the reported index and count, and Diverged()
// holding exactly when the lengths differ or a position diverges.
func FuzzObsDiff(f *testing.F) {
	long := sampleObs(50)
	short := sampleObs(12)
	shifted := sampleObs(50)
	for i := range shifted {
		shifted[i].Lat += 2
		shifted[i].Time += 640
	}
	enc := encodeObs
	// Seeds: identical pair, disjoint pair, truncated pair (same prefix,
	// different length), shifted latencies, interleaved streams, a torn
	// record, and raw junk.
	f.Add(enc(long), enc(long))
	f.Add(enc(long), enc(short))
	f.Add(enc(long), enc(long[:20]))
	f.Add(enc(long), enc(shifted))
	f.Add(enc(interleaveObs(long, shifted)), enc(long))
	f.Add(enc(interleaveObs(short, long)), enc(interleaveObs(long, short)))
	f.Add(enc(long)[:10], enc(long))
	f.Add([]byte("junk"), enc(nil))

	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := decodeObs(da), decodeObs(db)
		if d := DiffObs(a, a); d.Diverged() || d.First != -1 || d.Count != 0 {
			t.Fatalf("self-diff diverged: %+v", d)
		}
		d := DiffObs(a, b)
		r := DiffObs(b, a)
		if d.Mask != r.Mask || d.First != r.First || d.FirstMask != r.FirstMask ||
			d.Count != r.Count || d.LenA != r.LenB || d.LenB != r.LenA {
			t.Fatalf("asymmetric diff: %+v vs %+v", d, r)
		}
		n := min(len(a), len(b))
		if d.Count < 0 || d.Count > n {
			t.Fatalf("count %d outside common prefix %d", d.Count, n)
		}
		switch {
		case d.First == -1:
			if d.Diverged() || len(a) != len(b) {
				t.Fatalf("no first index but diverged: %+v", d)
			}
		case d.First < 0 || d.First > n:
			t.Fatalf("first index %d outside [0,%d]", d.First, n)
		case d.FirstMask == 0 || d.FirstMask&^d.Mask != 0:
			t.Fatalf("first mask %s not within union %s", d.FirstMask, d.Mask)
		}
		if d.Diverged() != (len(a) != len(b) || d.Count > 0) {
			t.Fatalf("Diverged() inconsistent: %+v", d)
		}
	})
}
