package bench

import (
	"strings"
	"testing"
)

// record builds a synthetic record from name -> measurement.
func record(ms map[string]Measurement) Record {
	return Record{Schema: Schema, Benchmarks: ms}
}

func TestGate(t *testing.T) {
	base := map[string]Measurement{
		"SecureRead":  {NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 0},
		"CounterBump": {NsPerOp: 30000, BytesPerOp: 22, AllocsPerOp: 0},
	}
	with := func(name string, m Measurement) map[string]Measurement {
		out := map[string]Measurement{}
		for k, v := range base {
			out[k] = v
		}
		out[name] = m
		return out
	}
	cases := []struct {
		name string
		prev map[string]Measurement
		curr map[string]Measurement
		want []string // the String of each regression, in order
	}{
		{"equal records pass", base, base, nil},
		{"ns per op within tolerance passes", base, with("SecureRead", Measurement{NsPerOp: 1090}), nil},
		{"15% ns per op regression fails", base, with("SecureRead", Measurement{NsPerOp: 1150}),
			[]string{"SecureRead: 1000 ns/op -> 1150 ns/op (15.0% slower)"}},
		{"one more alloc per op fails", base, with("SecureRead", Measurement{NsPerOp: 1000, AllocsPerOp: 1}),
			[]string{"SecureRead: 0 allocs/op -> 1 allocs/op"}},
		{"fewer allocs per op pass", with("SecureRead", Measurement{NsPerOp: 1000, AllocsPerOp: 2}), base, nil},
		{"bytes per op are not compared", base, with("CounterBump", Measurement{NsPerOp: 30000, BytesPerOp: 139}), nil},
		{"both at once are both reported", base, with("CounterBump", Measurement{NsPerOp: 36000, AllocsPerOp: 3}),
			[]string{"CounterBump: 30000 ns/op -> 36000 ns/op (20.0% slower)", "CounterBump: 0 allocs/op -> 3 allocs/op"}},
		{"a benchmark only in the current record is skipped", base, with("NewSystem", Measurement{NsPerOp: 1e9, AllocsPerOp: 99}), nil},
		{"a benchmark only in the previous record is skipped", with("Gone", Measurement{NsPerOp: 1}), base, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got []string
			for _, r := range Gate(record(c.prev), record(c.curr), 0.10) {
				got = append(got, r.String())
			}
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Fatalf("Gate = %q, want %q", got, c.want)
			}
		})
	}
}
