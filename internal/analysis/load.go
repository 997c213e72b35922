package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config parameterizes a Loader.
type Config struct {
	// Dir is the root below which packages are resolved: the module
	// root in normal runs, or a GOPATH-src-style root in golden tests.
	Dir string
	// Module is the module path mapping import paths to directories
	// under Dir ("metaleak" -> Dir, "metaleak/internal/sim" ->
	// Dir/internal/sim). Empty means import paths are directory paths
	// relative to Dir — the testdata layout, where a file may import
	// "internal/sim" and get Dir/internal/sim.
	Module string
	// IncludeTests also loads *_test.go files that belong to the
	// package under test. External test packages (package foo_test) are
	// never loaded.
	IncludeTests bool
}

// Package is one loaded, type-checked package.
type Package struct {
	Path string // import path
	Dir  string
	// Root is set on the package at the load root: the module's root
	// package, whose exported API is the facade.
	Root  bool
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds type-checking problems. Analyzers still run on a
	// package with errors (best effort), but the driver treats any as a
	// failed load: findings on a mistyped tree are not trustworthy.
	TypeErrors []error

	dirs *directiveSet
}

// Loader loads and type-checks packages. It resolves module-internal
// imports itself and defers everything else (the standard library) to
// the source importer, so it needs no compiled export data and no
// modules outside the repository.
type Loader struct {
	cfg  Config
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadEntry
}

type loadEntry struct {
	pkg     *Package
	err     error
	loading bool
}

// NewLoader builds a loader for the tree rooted at cfg.Dir.
func NewLoader(cfg Config) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		cfg:  cfg,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*loadEntry),
	}
}

// Load resolves the patterns ("./...", "./internal/sim", "internal/sim")
// and returns the matched packages sorted by import path. Directories
// without buildable Go files are skipped during "..." expansion and are
// an error when named explicitly.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		switch {
		case pat == "..." || pat == "":
			walked, err := l.walk(l.cfg.Dir)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.cfg.Dir, strings.TrimSuffix(pat, "/..."))
			walked, err := l.walk(root)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		default:
			dir := filepath.Join(l.cfg.Dir, pat)
			names, err := l.goFiles(dir)
			if err != nil {
				return nil, fmt.Errorf("pattern %q: %w", pat, err)
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("pattern %q: no Go files in %s", pat, dir)
			}
			add(dir)
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// walk returns every directory under root holding buildable Go files,
// skipping hidden directories, testdata, and vendor.
func (l *Loader) walk(root string) ([]string, error) {
	var dirs []string
	var visit func(dir string) error
	visit = func(dir string) error {
		names, err := l.goFiles(dir)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, dir)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			name := e.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" {
				continue
			}
			if err := visit(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(root); err != nil {
		return nil, err
	}
	return dirs, nil
}

// goFiles lists the buildable Go file names of a directory under the
// loader's test-inclusion policy.
func (l *Loader) goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	hasNonTest := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			if !l.cfg.IncludeTests {
				continue
			}
		} else {
			hasNonTest = true
		}
		names = append(names, name)
	}
	// A directory holding only test files is not a (non-test) package.
	if !hasNonTest {
		return nil, nil
	}
	return names, nil
}

// importPathFor derives a package's import path from its directory.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.cfg.Dir, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	switch {
	case rel == ".":
		if l.cfg.Module == "" {
			return "", fmt.Errorf("cannot load the root directory without a module path")
		}
		return l.cfg.Module, nil
	case strings.HasPrefix(rel, ".."):
		return "", fmt.Errorf("directory %s is outside the load root %s", dir, l.cfg.Dir)
	case l.cfg.Module == "":
		return rel, nil
	default:
		return l.cfg.Module + "/" + rel, nil
	}
}

// dirForImport maps an import path to a directory under the root, or ""
// if the path does not belong to the tree.
func (l *Loader) dirForImport(path string) string {
	if l.cfg.Module != "" {
		if path == l.cfg.Module {
			return l.cfg.Dir
		}
		if rest, ok := strings.CutPrefix(path, l.cfg.Module+"/"); ok {
			return filepath.Join(l.cfg.Dir, filepath.FromSlash(rest))
		}
		return ""
	}
	dir := filepath.Join(l.cfg.Dir, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from the tree; everything else goes to the standard-library source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if d := l.dirForImport(path); d != "" {
		pkg, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if from, ok := l.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks the package in dir (memoized).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	entry := &loadEntry{loading: true}
	l.pkgs[path] = entry
	pkg, err := l.parseAndCheck(dir, path)
	entry.pkg, entry.err, entry.loading = pkg, err, false
	return pkg, err
}

func (l *Loader) parseAndCheck(dir, path string) (*Package, error) {
	names, err := l.goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if buildIgnored(f) {
			continue
		}
		if pkgName == "" && !strings.HasSuffix(name, "_test.go") {
			pkgName = f.Name.Name
		}
		files = append(files, f)
	}
	// Drop files of a different package (external _test packages).
	kept := files[:0]
	for _, f := range files {
		if f.Name.Name == pkgName {
			kept = append(kept, f)
		}
	}
	files = kept
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}

	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Root:  filepath.Clean(dir) == filepath.Clean(l.cfg.Dir),
		Name:  pkgName,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
		dirs: collectDirectives(l.fset, files),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	// Check reports the first hard error through conf.Error too; the
	// returned package is kept regardless for best-effort analysis.
	pkg.Types, _ = conf.Check(path, l.fset, files, pkg.Info)
	return pkg, nil
}

// buildIgnored reports whether the file carries a "//go:build ignore"
// (or legacy "// +build ignore") constraint before its package clause.
func buildIgnored(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if strings.HasPrefix(text, "//go:build") && strings.Contains(text, "ignore") {
				return true
			}
			if strings.HasPrefix(text, "// +build") && strings.Contains(text, "ignore") {
				return true
			}
		}
	}
	return false
}

// FirstTypeErrors formats up to max type errors across the packages.
func FirstTypeErrors(pkgs []*Package, max int) []string {
	var out []string
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			if len(out) >= max {
				return out
			}
			out = append(out, e.Error())
		}
	}
	return out
}
