package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// tiny returns the smallest options that still run every pipeline.
func tiny() Options {
	return Options{
		Samples:   120,
		Bits:      24,
		Symbols:   4,
		ImageSize: 16,
		ExpBits:   24,
		PrimeBits: 32,
		Trials:    4,
		Seed:      77,
	}
}

func TestRegistryCoversAllPaperArtifacts(t *testing.T) {
	want := []string{
		"table1", "fig6", "fig7", "fig8", "fig11", "fig12", "fig14",
		"fig15", "fig15c", "fig16", "fig17", "fig18",
		"ablctr", "abltree", "ablmeta", "ablsec", "ablminor", "ablnoise",
		"defiso", "defrand", "defladder",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(IDs()), len(want))
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{
		ID:         "x",
		Title:      "T",
		Header:     []string{"a", "bb"},
		Rows:       [][]string{{"1", "2"}},
		Notes:      []string{"note"},
		PaperClaim: "claim",
		Measured:   "measured",
	}
	s := r.String()
	for _, frag := range []string{"== x: T ==", "a", "bb", "note", "claim", "measured"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestTable1(t *testing.T) {
	r, err := Run(context.Background(), "table1", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d config rows", len(r.Rows))
	}
}

func TestFig6BandsOrdered(t *testing.T) {
	r, err := Run(context.Background(), "fig6", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Rows are sorted path1..path4*; means must be increasing across
	// well-populated buckets (tiny buckets carry sampling noise).
	var prev float64 = -1
	for _, row := range r.Rows {
		if atofOrFail(t, row[1]) < 5 {
			continue
		}
		mean := atofOrFail(t, row[3])
		if mean < prev {
			t.Fatalf("band means not monotone: %v", r.Rows)
		}
		prev = mean
	}
	if len(r.Rows) < 4 {
		t.Fatalf("only %d path classes observed", len(r.Rows))
	}
}

func TestFig7BandsOrdered(t *testing.T) {
	r, err := Run(context.Background(), "fig7", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, row := range r.Rows {
		if atofOrFail(t, row[1]) < 5 {
			continue
		}
		mean := atofOrFail(t, row[3])
		if mean < prev {
			t.Fatalf("SGX band means not monotone: %v", r.Rows)
		}
		prev = mean
	}
}

func TestFig8GapIsLarge(t *testing.T) {
	r, err := Run(context.Background(), "fig8", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	normal := atofOrFail(t, r.Rows[0][3])
	overflow := atofOrFail(t, r.Rows[1][3])
	if overflow < normal+1000 {
		t.Fatalf("overflow band %v not well above normal %v", overflow, normal)
	}
}

func TestFig11Accuracy(t *testing.T) {
	r, err := Run(context.Background(), "fig11", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if acc := pctOrFail(t, row[3]); acc < 0.85 {
			t.Fatalf("%s covert accuracy %.2f < 0.85", row[0], acc)
		}
	}
}

func TestFig12MonotoneCoverage(t *testing.T) {
	r, err := Run(context.Background(), "fig12", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatalf("only %d levels", len(r.Rows))
	}
}

func TestFig14Accuracy(t *testing.T) {
	r, err := Run(context.Background(), "fig14", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc := pctOrFail(t, r.Rows[0][1]); acc < 0.7 {
		t.Fatalf("MetaLeak-C accuracy %.2f", acc)
	}
}

func TestFig15Accuracy(t *testing.T) {
	r, err := Run(context.Background(), "fig15", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if acc := pctOrFail(t, row[2]); acc < 0.85 {
			t.Fatalf("stealing accuracy %.2f for %s", acc, row[0])
		}
	}
}

func TestFig16Accuracy(t *testing.T) {
	r, err := Run(context.Background(), "fig16", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if acc := pctOrFail(t, row[3]); acc < 0.8 {
			t.Fatalf("%s exponent accuracy %.2f", row[0], acc)
		}
	}
}

func TestFig17Accuracy(t *testing.T) {
	r, err := Run(context.Background(), "fig17", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc := pctOrFail(t, r.Rows[0][2]); acc < 0.8 {
		t.Fatalf("shift/sub accuracy %.2f", acc)
	}
}

func TestFig18Monotoneish(t *testing.T) {
	r, err := Run(context.Background(), "fig18", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	first := pctOrFail(t, r.Rows[0][1])
	last := pctOrFail(t, r.Rows[len(r.Rows)-1][1])
	if last <= first {
		t.Fatalf("eviction probability did not rise: %.2f -> %.2f", first, last)
	}
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"ablctr", "abltree", "ablmeta", "ablsec", "ablminor"} {
		r, err := Registry[id](tiny()).Run(context.Background(), 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r.Rows) < 3 {
			t.Fatalf("%s: only %d rows", id, len(r.Rows))
		}
	}
}

func TestAblationNoiseDegradesGracefully(t *testing.T) {
	r, err := Run(context.Background(), "ablnoise", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	quiet := pctOrFail(t, r.Rows[0][1])
	noisy := pctOrFail(t, r.Rows[len(r.Rows)-1][1])
	if quiet < 0.99 {
		t.Fatalf("noise-off accuracy %.2f", quiet)
	}
	if noisy > quiet {
		t.Fatalf("noise improved accuracy: %.2f > %.2f", noisy, quiet)
	}
}

func TestDefenseIsolation(t *testing.T) {
	r, err := Run(context.Background(), "defiso", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Measured, "blocked at 6/6") {
		t.Fatalf("isolation did not block all levels: %s", r.Measured)
	}
	if !strings.Contains(r.Measured, "MetaLeak-C blocked") {
		t.Fatalf("isolation did not block MetaLeak-C: %s", r.Measured)
	}
}

func TestAblationSecureOverheadShowsSlowdown(t *testing.T) {
	r, err := Run(context.Background(), "ablsec", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The secure configs' cold reads must be slower than the baseline's.
	base := atofOrFail(t, r.Rows[0][1])
	for _, row := range r.Rows[1:] {
		if atofOrFail(t, row[1]) <= base {
			t.Fatalf("%s cold read not slower than insecure baseline", row[0])
		}
	}
}

func TestDefenseRandomizedMeta(t *testing.T) {
	r, err := Run(context.Background(), "defrand", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Rows[1][2], "impossible") {
		t.Fatalf("conflict strategy not blocked: %v", r.Rows[1])
	}
	if acc := pctOrFail(t, r.Rows[2][2]); acc < 0.75 {
		t.Fatalf("volume strategy accuracy %.2f", acc)
	}
}

func TestDefenseLadder(t *testing.T) {
	r, err := Run(context.Background(), "defladder", tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	smRecovery := pctOrFail(t, r.Rows[0][3])
	ladderRecovery := pctOrFail(t, r.Rows[1][3])
	if smRecovery < 0.9 {
		t.Fatalf("square-and-multiply recovery only %.2f", smRecovery)
	}
	if ladderRecovery > 0.75 {
		t.Fatalf("ladder leaked: recovery %.2f", ladderRecovery)
	}
	// The channel itself still works: op classification stays high on the
	// hardened victim too.
	if opAcc := pctOrFail(t, r.Rows[1][2]); opAcc < 0.9 {
		t.Fatalf("op classification collapsed on ladder: %.2f", opAcc)
	}
}

func atofOrFail(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(s, "%f", &v); err != nil {
		t.Fatalf("bad number %q: %v", s, err)
	}
	return v
}

func pctOrFail(t *testing.T, s string) float64 {
	t.Helper()
	return atofOrFail(t, strings.TrimSuffix(s, "%")) / 100
}

func TestMarkdownRendering(t *testing.T) {
	r := &Result{
		ID: "x", Title: "T",
		Header:     []string{"a", "b"},
		Rows:       [][]string{{"1", "2"}},
		Notes:      []string{"single line", "multi\nline"},
		PaperClaim: "claim", Measured: "measured",
	}
	md := r.Markdown()
	for _, frag := range []string{"### `x` — T", "| a | b |", "| 1 | 2 |", "```", "*Paper:* claim", "*Measured:* measured"} {
		if !strings.Contains(md, frag) {
			t.Fatalf("markdown missing %q:\n%s", frag, md)
		}
	}
}

// TestDeterminism asserts that an experiment re-run with the same options
// reproduces its rows exactly — the property the whole evaluation's
// reproducibility rests on.
func TestDeterminism(t *testing.T) {
	for _, id := range []string{"fig6", "fig8", "fig18"} {
		a, err := Registry[id](tiny()).Run(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Registry[id](tiny()).Run(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: row count differs across runs", id)
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j] != b.Rows[i][j] {
					t.Fatalf("%s: row %d col %d: %q vs %q", id, i, j, a.Rows[i][j], b.Rows[i][j])
				}
			}
		}
	}
}

// TestSeedChangesResults asserts the seed actually perturbs stochastic
// experiments (guarding against an ignored Seed field).
func TestSeedChangesResults(t *testing.T) {
	o1, o2 := tiny(), tiny()
	o2.Seed = o1.Seed + 1000
	a, err := Run(context.Background(), "fig18", o1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), "fig18", o2, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Rows {
		if a.Rows[i][1] != b.Rows[i][1] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical Fig18 sweeps")
	}
}
