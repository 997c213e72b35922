package faults

import (
	"reflect"
	"testing"
)

// FuzzFaultsParse drives the fault-spec grammar with arbitrary input.
// Parse must never panic, and an accepted spec must split into halves
// that parse back on their own: the CLI puts MachineSpec inside the
// DesignPoint and ships HarnessSpec to dispatch workers
// (cmd/metaleak/grid.go), so each half must reproduce its own entries of
// the whole plan and none of the other's. The committed corpus holds the
// package doc's examples and one mixed spec.
func FuzzFaultsParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		m, err := Parse(p.MachineSpec())
		if err != nil {
			t.Fatalf("Parse(%q).MachineSpec() = %q does not parse: %v", spec, p.MachineSpec(), err)
		}
		if !reflect.DeepEqual(m.Machine, p.Machine) || len(m.Harness) != 0 {
			t.Fatalf("MachineSpec %q of %q parses to %+v and %+v, want %+v and no harness entries",
				p.MachineSpec(), spec, m.Machine, m.Harness, p.Machine)
		}
		h, err := Parse(p.HarnessSpec())
		if err != nil {
			t.Fatalf("Parse(%q).HarnessSpec() = %q does not parse: %v", spec, p.HarnessSpec(), err)
		}
		if !reflect.DeepEqual(h.Harness, p.Harness) || len(h.Machine) != 0 {
			t.Fatalf("HarnessSpec %q of %q parses to %+v and %+v, want %+v and no machine entries",
				p.HarnessSpec(), spec, h.Harness, h.Machine, p.Harness)
		}
	})
}
