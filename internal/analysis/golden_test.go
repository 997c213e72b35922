package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGolden runs each analyzer over its purpose-built package tree
// under testdata/src/<name> and compares the exact diagnostics against
// testdata/<name>.golden. Every fixture must produce at least one true
// positive and exercise the allow directive at least once, so both
// sides of each invariant stay pinned.
func TestGolden(t *testing.T) {
	for _, a := range All {
		t.Run(a.Name, func(t *testing.T) {
			root, err := filepath.Abs(filepath.Join("testdata", "src", a.Name))
			if err != nil {
				t.Fatal(err)
			}
			loader := NewLoader(Config{Dir: root, Module: fixtureModule(t, root), IncludeTests: true})
			pkgs, err := loader.Load("./...")
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if errs := FirstTypeErrors(pkgs, 5); len(errs) > 0 {
				t.Fatalf("fixture does not type-check: %v", errs)
			}

			res := Run(pkgs, []*Analyzer{a})
			res.Relativize(root)
			var sb strings.Builder
			if err := res.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			got := sb.String()

			if len(res.Diagnostics) == 0 {
				t.Error("fixture produced no diagnostics; each analyzer needs a true positive")
			}
			if res.Suppressed == 0 {
				t.Error("fixture suppressed no findings; each analyzer needs an allow-directive case")
			}

			goldenPath := filepath.Join("testdata", a.Name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/analysis -run TestGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// fixtureModule returns the module path a fixture's go.mod declares,
// or "" for a GOPATH-style fixture without one (import paths are then
// directory paths). A fixture needs a module for a root package.
func fixtureModule(t *testing.T, root string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if os.IsNotExist(err) {
		return ""
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(mod)
		}
	}
	t.Fatalf("%s/go.mod declares no module", root)
	return ""
}

// TestRegistry pins the analyzer set: names must be unique (they key
// allow directives) and every analyzer documented.
func TestRegistry(t *testing.T) {
	if len(All) < 5 {
		t.Fatalf("expected at least 5 analyzers, have %d", len(All))
	}
	seen := make(map[string]bool)
	for _, a := range All {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v incompletely defined", a)
		}
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunProgram", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	if ByName("no-such-analyzer") != nil {
		t.Error("ByName of unknown name should be nil")
	}
}
