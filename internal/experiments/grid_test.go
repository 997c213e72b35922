package experiments

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"
)

// TestValidateRejectsNegativeSizes: a negative size would be silently
// normalized to the default grid, so Validate refuses it, while zero
// keeps meaning "use the default" for library callers and JSON specs
// that omit the field.
func TestValidateRejectsNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*SweepAxes)
		want   string // "" = valid
	}{
		{"default seeds", func(a *SweepAxes) { a.Seeds = 0 }, ""},
		{"default bits", func(a *SweepAxes) { a.Bits = 0 }, ""},
		{"negative seeds", func(a *SweepAxes) { a.Seeds = -1 }, "seeds"},
		{"negative bits", func(a *SweepAxes) { a.Bits = -5 }, "bit budget -5"},
	} {
		axes := tinyAxes()
		tc.mutate(&axes)
		err := axes.Validate()
		if tc.want == "" && err != nil {
			t.Errorf("sweep %s: rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("sweep %s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	for _, tc := range []struct {
		name   string
		mutate func(*HuntAxes)
		want   string
	}{
		{"defaults", func(a *HuntAxes) { *a = HuntAxes{Configs: a.Configs} }, ""},
		{"no configs", func(a *HuntAxes) { a.Configs = nil }, "no configs"},
		{"negative programs", func(a *HuntAxes) { a.Programs = -1 }, "program count -1"},
		{"negative pairs", func(a *HuntAxes) { a.Pairs = -3 }, "pair count -3"},
		{"negative ops", func(a *HuntAxes) { a.Ops = -64 }, "op count -64"},
		{"negative secret length", func(a *HuntAxes) { a.SecretLen = -1 }, "secret length -1"},
	} {
		axes := huntTestAxes()
		tc.mutate(&axes)
		err := axes.Validate()
		if tc.want == "" && err != nil {
			t.Errorf("hunt %s: rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("hunt %s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// The engines refuse what Validate refuses.
	bad := tinyAxes()
	bad.Bits = -1
	if _, err := Sweep(context.Background(), bad, 1); err == nil {
		t.Error("Sweep accepted a negative bit budget")
	}
	badHunt := huntTestAxes()
	badHunt.Pairs = -1
	if _, err := HuntOpts(context.Background(), badHunt, SweepOptions{Workers: 1}); err == nil {
		t.Error("HuntOpts accepted a negative pair count")
	}
}

// TestHuntDispatchRefusesSweepOptions: the result cache and OnRow hold
// sweep rows, so a hunt dispatch given either fails instead of silently
// ignoring it, and releases the listener it was handed.
func TestHuntDispatchRefusesSweepOptions(t *testing.T) {
	cache, err := OpenResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	for name, dopts := range map[string]DispatchOptions{
		"Cache": {Cache: cache},
		"OnRow": {OnRow: func(SweepRow, bool) {}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// With no workers attached, a dispatch that ignored the option
		// would wait for one until the deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		rows, err := HuntDispatch(ctx, huntTestAxes(), SweepOptions{}, dopts, ln)
		cancel()
		if err == nil || !strings.Contains(err.Error(), name) || rows != nil {
			t.Errorf("%s: rows=%v err=%v, want a refusal naming the option", name, rows, err)
		}
		if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
			conn.Close()
			t.Errorf("%s: listener left open", name)
		}
	}
}
