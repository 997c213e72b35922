package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	pos := token.Position{Filename: "f.go", Line: 10, Column: 1}
	cases := []struct {
		text      string
		kind      DirectiveKind
		analyzers []string
		names     []string
		channel   string
		reason    string
		malformed bool
		nil_      bool
	}{
		{text: "// ordinary comment", nil_: true},
		{text: "//metalint: allow wallclock", nil_: true}, // space before kind: not a directive
		{text: "//metalint:allow wallclock", kind: DirAllow, analyzers: []string{"wallclock"}},
		{
			text:      "//metalint:allow wallclock,maporder two analyzers, one excuse",
			kind:      DirAllow,
			analyzers: []string{"wallclock", "maporder"},
			reason:    "two analyzers, one excuse",
		},
		{
			text:   "//metalint:secret p,q -- RSA factors",
			kind:   DirSecret,
			names:  []string{"p", "q"},
			reason: "RSA factors",
		},
		{
			text:    "//metalint:leaky trip-count loop runs per key bit",
			kind:    DirLeaky,
			channel: "trip-count",
			reason:  "loop runs per key bit",
		},
		{text: "//metalint:allow", kind: DirAllow, malformed: true},
		{text: "//metalint:secret", kind: DirSecret, malformed: true},
		{text: "//metalint:leaky UPPER bad channel", kind: DirLeaky, malformed: true},
		{text: "//metalint:frobnicate x", kind: "frobnicate", malformed: true},
	}
	for _, tc := range cases {
		d := parseDirective(pos, tc.text)
		if tc.nil_ {
			if d != nil {
				t.Errorf("%q: expected nil, got %+v", tc.text, d)
			}
			continue
		}
		if d == nil {
			t.Errorf("%q: expected a directive, got nil", tc.text)
			continue
		}
		if d.Kind != tc.kind {
			t.Errorf("%q: kind = %q, want %q", tc.text, d.Kind, tc.kind)
		}
		if (d.malformed != "") != tc.malformed {
			t.Errorf("%q: malformed = %q, want malformed=%v", tc.text, d.malformed, tc.malformed)
		}
		if tc.malformed {
			continue
		}
		if got, want := len(d.Analyzers), len(tc.analyzers); got != want {
			t.Errorf("%q: %d analyzers, want %d", tc.text, got, want)
		} else {
			for i := range tc.analyzers {
				if d.Analyzers[i] != tc.analyzers[i] {
					t.Errorf("%q: analyzer[%d] = %q, want %q", tc.text, i, d.Analyzers[i], tc.analyzers[i])
				}
			}
		}
		if got, want := len(d.Names), len(tc.names); got != want {
			t.Errorf("%q: %d names, want %d", tc.text, got, want)
		}
		if d.Channel != tc.channel {
			t.Errorf("%q: channel = %q, want %q", tc.text, d.Channel, tc.channel)
		}
		if d.Reason != tc.reason {
			t.Errorf("%q: reason = %q, want %q", tc.text, d.Reason, tc.reason)
		}
	}
}

// TestDirectiveCoversMultiLineStatement pins the coverage rule for
// statements spanning several lines: the directive on the line above
// the statement covers positions on the statement's first line (where
// sinks and findings are anchored), and nothing deeper inside it.
func TestDirectiveCoversMultiLineStatement(t *testing.T) {
	const src = `package p

func f(a, b int) int {
	//metalint:leaky branch-skew condition spans three lines
	if a > 0 &&
		b > 0 &&
		a != b {
		return 1
	}
	return 0
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	set := collectDirectives(fset, []*ast.File{file})
	if len(set.list) != 1 {
		t.Fatalf("expected 1 directive, got %d", len(set.list))
	}
	at := func(line int) []*Directive {
		return set.covering(DirLeaky, token.Position{Filename: "f.go", Line: line})
	}
	if len(at(5)) != 1 { // the if-statement's first line
		t.Error("directive on line 4 must cover the statement starting on line 5")
	}
	if len(at(4)) != 1 { // the directive's own line
		t.Error("directive must cover its own line (trailing-comment form)")
	}
	if len(at(6)) != 0 || len(at(7)) != 0 {
		t.Error("directive must not cover continuation lines of the statement")
	}
}

// TestMultiAnalyzerAllow pins that one allow directive can silence
// several analyzers and that allowedAt marks it used for staleness.
func TestMultiAnalyzerAllow(t *testing.T) {
	const src = `package p

func f() {
	//metalint:allow wallclock,globalrand shared excuse
	_ = 1
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{dirs: collectDirectives(fset, []*ast.File{file})}
	pos := token.Position{Filename: "f.go", Line: 5}
	if !pkg.allowedAt("wallclock", pos) {
		t.Error("first listed analyzer not suppressed")
	}
	if !pkg.allowedAt("globalrand", pos) {
		t.Error("second listed analyzer not suppressed")
	}
	if pkg.allowedAt("maporder", pos) {
		t.Error("unlisted analyzer must not be suppressed")
	}
	d := pkg.dirs.list[0]
	if !d.Used() {
		t.Error("suppressing a finding must mark the directive used")
	}
}

// TestRelativizeDotDotSegment is the regression test for Relativize
// mishandling files whose relative path legitimately starts with a
// ".."-named segment: only true parent-directory escapes may keep
// their absolute path.
func TestRelativizeDotDotSegment(t *testing.T) {
	base := filepath.Join(string(filepath.Separator), "work", "repo")
	inside := filepath.Join(base, "..weird", "a.go")
	outside := filepath.Join(string(filepath.Separator), "work", "other", "a.go")
	parent := filepath.Join(string(filepath.Separator), "work")

	if got, want := relativize(base, inside), "..weird/a.go"; got != want {
		t.Errorf("relativize(inside ..weird dir) = %q, want %q", got, want)
	}
	if got := relativize(base, outside); got != outside {
		t.Errorf("relativize(outside) = %q, want unchanged %q", got, outside)
	}
	if got := relativize(base, parent); got != parent {
		t.Errorf("relativize(parent dir itself) = %q, want unchanged %q", got, parent)
	}

	res := Result{
		Diagnostics: []Diagnostic{{File: inside}},
		Stale:       []Diagnostic{{File: outside}},
		Inventory: []LeakSite{{
			File:  inside,
			Chain: []ChainStep{{File: inside}, {File: outside}},
		}},
	}
	res.Relativize(base)
	if res.Diagnostics[0].File != "..weird/a.go" {
		t.Errorf("diagnostic not relativized: %q", res.Diagnostics[0].File)
	}
	if res.Stale[0].File != outside {
		t.Errorf("outside stale path must stay absolute: %q", res.Stale[0].File)
	}
	if res.Inventory[0].File != "..weird/a.go" || res.Inventory[0].Chain[0].File != "..weird/a.go" {
		t.Errorf("inventory paths not relativized: %+v", res.Inventory[0])
	}
	if res.Inventory[0].Chain[1].File != outside {
		t.Errorf("outside chain path must stay absolute: %q", res.Inventory[0].Chain[1].File)
	}
}

// TestDeadcodeStaleAllow pins the stale scan for deadcode: an allow
// directive on a function something reaches suppresses nothing and is
// warned about, while the one on a test-only reference model is used.
func TestDeadcodeStaleAllow(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(Config{Dir: root, Module: fixtureModule(t, root)}).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, []*Analyzer{DeadCode})
	res.Relativize(root)
	if len(res.Stale) != 1 {
		t.Fatalf("want exactly 1 stale directive, got %v", res.Stale)
	}
	if d := res.Stale[0]; d.File != "internal/lib/lib.go" || !strings.Contains(d.Message, "stale //metalint:allow deadcode") {
		t.Errorf("stale warning = %v, want the allow deadcode above Stale in internal/lib/lib.go", d)
	}
	if res.Suppressed != 1 {
		t.Errorf("suppressed %d findings, want 1 (Reference)", res.Suppressed)
	}
}
