// Package analysis is the static-analysis framework behind cmd/metalint:
// it loads every package of the repository with full type information
// (stdlib only — go/parser, go/types, and the source importer; no module
// dependencies) and runs determinism analyzers over them.
//
// The simulator's results are only meaningful if "time" always means
// simulated cycles and every run with one seed is byte-identical. That
// contract cannot be guarded by tests alone — a single stray time.Now or
// an order-dependent range over a map silently perturbs every experiment
// — so it is enforced statically. Each invariant is an Analyzer; the
// Pass abstraction gives analyzers a shared file set, type info,
// diagnostics with file:line:col positions, and allow-directive
// suppression, so follow-on invariants are cheap to add.
//
// # Allow directives
//
// A finding is suppressed by a directive comment on the flagged line or
// on the line directly above it:
//
//	//metalint:allow <analyzer>[,<analyzer>...] [reason]
//
// The reason is free text and encouraged: directives are grep-able
// documentation of every intentional exception to the determinism
// contract.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Per-package analyzers set Run,
// which inspects a single package; whole-program analyzers set
// RunProgram, which sees every loaded package at once (required for
// interprocedural passes like secretflow). Exactly one of the two is
// set.
type Analyzer struct {
	// Name is the identifier used in output and in allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Match restricts the analyzer to packages for which it returns
	// true; nil applies the analyzer to every package. A whole-program
	// analyzer still analyzes every loaded package — Match gates only
	// which packages it may report findings in.
	Match func(pkgPath string) bool
	// Run performs the analysis on pass.Pkg.
	Run func(pass *Pass)
	// RunProgram performs a whole-program analysis over pass.Pkgs.
	RunProgram func(pass *ProgramPass)
}

// All lists the registered analyzers in stable output order.
var All = []*Analyzer{
	WallClock,
	GlobalRand,
	MapOrder,
	CycleLeak,
	FloatCycles,
	UncheckedErr,
	SeedPlumbing,
	SecretFlow,
	DeadCode,
}

// ByName returns the registered analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass carries the per-(analyzer, package) state handed to Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags      *[]Diagnostic
	suppressed *int
}

// Reportf records a finding at pos unless an allow directive for this
// analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.allowedAt(p.Analyzer.Name, position) {
		*p.suppressed++
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the state handed to a whole-program analyzer's
// RunProgram: every loaded package, plus the reporting plumbing.
type ProgramPass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Fset     *token.FileSet

	res *Result
}

// Reportable reports whether findings in pkg are within the analyzer's
// reporting scope (its Match function).
func (p *ProgramPass) Reportable(pkg *Package) bool {
	return p.Analyzer.Match == nil || p.Analyzer.Match(pkg.Path)
}

// Reportf records a finding at pos in pkg unless the package is outside
// the analyzer's reporting scope or an allow directive covers the
// position.
func (p *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	if !p.Reportable(pkg) {
		return
	}
	position := p.Fset.Position(pos)
	if pkg.allowedAt(p.Analyzer.Name, position) {
		p.res.Suppressed++
		return
	}
	p.res.Diagnostics = append(p.res.Diagnostics, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// AddLeak records one declared leak site in the inventory.
func (p *ProgramPass) AddLeak(site LeakSite) {
	p.res.Inventory = append(p.res.Inventory, site)
}

// ChainStep is one hop of a taint chain: the seed declaration, an
// interprocedural hand-off, or the sink itself.
type ChainStep struct {
	Desc string `json:"desc"`
	File string `json:"file"`
	Line int    `json:"line"`
}

// LeakSite is one entry of the leakage inventory: a secret-dependent
// site covered by a //metalint:leaky directive. The set of LeakSites is
// the leakage contract — the only places secrets may influence
// control flow or addresses.
type LeakSite struct {
	File    string      `json:"file"`
	Line    int         `json:"line"`
	Col     int         `json:"col"`
	Kind    string      `json:"kind"`    // branch | loop-bound | index | alloc | spread
	Channel string      `json:"channel"` // from the leaky directive
	Symbol  string      `json:"symbol"`  // the secret(s) reaching the site
	Reason  string      `json:"reason"`  // from the leaky directive
	Chain   []ChainStep `json:"chain"`   // seed-to-sink taint path
}

// Inventory is the machine-readable leakage contract emitted by
// `metalint -inventory` and diffed against the committed golden in CI.
type Inventory struct {
	Version int        `json:"version"`
	Sites   []LeakSite `json:"sites"`
}

// Result is the outcome of running a set of analyzers over a set of
// packages.
type Result struct {
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by allow directives.
	Suppressed int
	// Inventory lists the declared (leaky-annotated) secret-dependent
	// sites found by whole-program analyzers.
	Inventory []LeakSite
	// Stale warns about directives that did nothing: suppressed no
	// finding, marked no declaration, covered no leak. Gated to the
	// analyzers that actually ran, so partial runs never cry stale.
	Stale []Diagnostic
}

// Run applies each analyzer to each package it matches and returns the
// findings sorted by position. Whole-program analyzers run once over
// the full package set.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	var res Result
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Pkg:        pkg,
				diags:      &res.Diagnostics,
				suppressed: &res.Suppressed,
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		var fset *token.FileSet
		if len(pkgs) > 0 {
			fset = pkgs[0].Fset
		}
		a.RunProgram(&ProgramPass{Analyzer: a, Pkgs: pkgs, Fset: fset, res: &res})
	}
	res.Stale = staleDirectives(pkgs, ran)
	sortDiags(res.Diagnostics)
	sortDiags(res.Stale)
	sort.Slice(res.Inventory, func(i, j int) bool {
		a, b := res.Inventory[i], res.Inventory[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Kind < b.Kind
	})
	return res
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// Relativize rewrites diagnostic, inventory, and stale-warning file
// names relative to base (when possible) for stable, readable output.
func (r *Result) Relativize(base string) {
	for i := range r.Diagnostics {
		r.Diagnostics[i].File = relativize(base, r.Diagnostics[i].File)
	}
	for i := range r.Stale {
		r.Stale[i].File = relativize(base, r.Stale[i].File)
	}
	for i := range r.Inventory {
		site := &r.Inventory[i]
		site.File = relativize(base, site.File)
		for j := range site.Chain {
			site.Chain[j].File = relativize(base, site.Chain[j].File)
		}
	}
}

// relativize returns file relative to base unless file lies outside
// base. The escape test compares against the ".." path *segment*, not
// the ".." prefix, so a sibling named "..foo" (a legitimate, if odd,
// directory name) still relativizes.
func relativize(base, file string) string {
	rel, err := filepath.Rel(base, file)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return file
	}
	return filepath.ToSlash(rel)
}

// WriteText renders findings one per line in file:line:col form.
func (r *Result) WriteText(w io.Writer) error {
	for _, d := range r.Diagnostics {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteInventory renders the leakage inventory as stable, indented
// JSON (an empty sites array, not null, when nothing is declared
// leaky).
func (r *Result) WriteInventory(w io.Writer) error {
	sites := r.Inventory
	if sites == nil {
		sites = []LeakSite{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Inventory{Version: 1, Sites: sites})
}

// WriteJSON renders findings as a JSON array (empty array, not null,
// when the tree is clean, so consumers can always index the result).
func (r *Result) WriteJSON(w io.Writer) error {
	diags := r.Diagnostics
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// pathHasSuffixSegment reports whether the import path is, or ends with,
// the given slash-separated segment sequence (e.g. "internal/sim"
// matches both "internal/sim" and "metaleak/internal/sim" but not
// "internal/simulator").
func pathHasSuffixSegment(path, segs string) bool {
	return path == segs || strings.HasSuffix(path, "/"+segs)
}

// matchAnyPkg builds a Match function from package path segments.
func matchAnyPkg(segs ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range segs {
			if pathHasSuffixSegment(path, s) {
				return true
			}
		}
		return false
	}
}
