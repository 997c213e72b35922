package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the interprocedural taint engine behind the secretflow
// analyzer. It is a summary-based dataflow pass, not an AST pattern
// match:
//
//  1. Every function and function literal in the loaded program becomes
//     a funcInfo with a symbolic environment mapping its locals to
//     taint values.
//  2. A coarse function-value flow pass resolves dynamic calls through
//     variables and struct fields (the mpi.Hooks pattern) and method
//     expressions, iterating because resolving a call can reveal new
//     function-value flows.
//  3. Per-function summaries are computed to a global fixpoint: for
//     each result and each by-reference parameter, the set of
//     parameters, shared objects (package vars and captured locals),
//     and secret seeds it may derive from. Call results are
//     instantiated per call site with that site's argument taints, so
//     a helper shared by secret and non-secret callers does not smear
//     taint across them.
//  4. A final recording pass collects sinks (branch and switch
//     conditions, loop bounds, index expressions, make sizes, variadic
//     spreads), call-argument hand-offs, and shared-object writes with
//     their symbolic dependencies, and a small concrete fixpoint
//     propagates seeds through those records, tracking provenance so
//     each finding carries its seed-to-sink chain.
//
// Soundness limits (deliberate, documented in DESIGN.md §10): only
// explicit data flows are tracked (no implicit flow through control
// dependence), interface method calls and calls into the standard
// library propagate argument taint to results but have no modelled
// side effects, channels and slice-expression bounds are not tracked,
// and package-level variable initializers are not analyzed.

// maxSeeds caps the seed bitset; later seeds share the last bit
// (conservative merging, never silent dropping).
const maxSeeds = 64

// symval is the symbolic taint of a value inside one function: which
// of the function's parameters, which secret seeds, and which shared
// objects (package-level vars, captured outer locals) it may derive
// from.
type symval struct {
	params  uint64
	seeds   uint64
	globals map[types.Object]bool
}

func (v *symval) add(o symval) bool {
	changed := false
	if o.params&^v.params != 0 {
		v.params |= o.params
		changed = true
	}
	if o.seeds&^v.seeds != 0 {
		v.seeds |= o.seeds
		changed = true
	}
	for g := range o.globals {
		if !v.globals[g] {
			if v.globals == nil {
				v.globals = make(map[types.Object]bool)
			}
			v.globals[g] = true
			changed = true
		}
	}
	return changed
}

func (v symval) empty() bool {
	return v.params == 0 && v.seeds == 0 && len(v.globals) == 0
}

// funcInfo is one analyzed function or function literal.
type funcInfo struct {
	idx  int
	name string
	pkg  *Package
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declared functions
	body *ast.BlockStmt
	sig  *types.Signature
	// params is the receiver (if any) followed by the parameters.
	params   []*types.Var
	paramIdx map[*types.Var]int
	// resultVars holds the (possibly unnamed) result objects.
	resultVars []*types.Var
	span       [2]token.Pos

	env       map[types.Object]*symval
	results   []symval // summary: taint of each result
	mutParams []symval // summary: taint written through each parameter
}

// seedInfo is one secret source established by a //metalint:secret
// directive.
type seedInfo struct {
	id   int
	name string
	pos  token.Position
	dir  *Directive
}

func (s *seedInfo) bit() uint64 {
	id := s.id
	if id >= maxSeeds {
		id = maxSeeds - 1
	}
	return 1 << uint(id)
}

// resultKey addresses a function's i-th result in the function-value
// flow graph.
type resultKey struct {
	f   *funcInfo
	idx int
}

// Records collected by the final pass.

type sinkRec struct {
	f    *funcInfo
	pos  token.Pos
	kind string
	desc string
	deps symval
}

type callArgRec struct {
	f      *funcInfo
	pos    token.Pos
	callee *funcInfo
	param  int
	deps   symval
}

type globalWriteRec struct {
	f    *funcInfo
	pos  token.Pos
	obj  types.Object
	deps symval
}

// provStep is one interprocedural hop of a seed's journey, forming a
// linked chain back toward the seed declaration.
type provStep struct {
	pos    token.Position
	desc   string
	parent *provStep
}

// tracker is the whole-program analysis state.
type tracker struct {
	fset  *token.FileSet
	pkgs  []*Package
	funcs []*funcInfo
	byObj map[*types.Func]*funcInfo
	byLit map[*ast.FuncLit]*funcInfo

	seeds  []*seedInfo
	seedOf map[types.Object]*seedInfo

	// funcVals holds the function-value flow facts: which concrete
	// functions may a variable, field, parameter, or result hold.
	funcVals map[any]map[*funcInfo]bool

	sinks        []sinkRec
	callArgs     []callArgRec
	globalWrites []globalWriteRec

	// Concrete propagation state: per function parameter and per
	// shared object, which seeds reach it and through which chain.
	reachedParam  map[*funcInfo][]map[int]*provStep
	reachedShared map[types.Object]map[int]*provStep
}

func newTracker(fset *token.FileSet, pkgs []*Package) *tracker {
	t := &tracker{
		fset:          fset,
		pkgs:          pkgs,
		byObj:         make(map[*types.Func]*funcInfo),
		byLit:         make(map[*ast.FuncLit]*funcInfo),
		seedOf:        make(map[types.Object]*seedInfo),
		funcVals:      make(map[any]map[*funcInfo]bool),
		reachedParam:  make(map[*funcInfo][]map[int]*provStep),
		reachedShared: make(map[types.Object]map[int]*provStep),
	}
	t.discoverFuncs()
	t.collectSeeds()
	return t
}

// discoverFuncs registers every declared function and function literal
// in deterministic (package, file, position) order.
func (t *tracker) discoverFuncs() {
	for _, pkg := range t.pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body == nil {
						return true
					}
					obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
					if obj == nil {
						return true
					}
					sig, _ := obj.Type().(*types.Signature)
					if sig == nil {
						return true
					}
					f := t.addFunc(pkg, sig, fn.Body, fn.Pos(), fn.End())
					f.decl = fn
					f.name = funcDisplayName(pkg, obj)
					t.byObj[obj] = f
				case *ast.FuncLit:
					sig, _ := pkg.Info.Types[fn.Type].Type.(*types.Signature)
					if sig == nil {
						return true
					}
					f := t.addFunc(pkg, sig, fn.Body, fn.Pos(), fn.End())
					f.lit = fn
					p := t.fset.Position(fn.Pos())
					f.name = fmt.Sprintf("func@%s:%d", filepath.Base(p.Filename), p.Line)
					t.byLit[fn] = f
				}
				return true
			})
		}
	}
}

func (t *tracker) addFunc(pkg *Package, sig *types.Signature, body *ast.BlockStmt, lo, hi token.Pos) *funcInfo {
	f := &funcInfo{
		idx:      len(t.funcs),
		pkg:      pkg,
		body:     body,
		sig:      sig,
		paramIdx: make(map[*types.Var]int),
		env:      make(map[types.Object]*symval),
		span:     [2]token.Pos{lo, hi},
	}
	if recv := sig.Recv(); recv != nil {
		f.params = append(f.params, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		f.params = append(f.params, sig.Params().At(i))
	}
	for i, p := range f.params {
		f.paramIdx[p] = i
	}
	for i := 0; i < sig.Results().Len(); i++ {
		f.resultVars = append(f.resultVars, sig.Results().At(i))
	}
	f.results = make([]symval, len(f.resultVars))
	f.mutParams = make([]symval, len(f.params))
	t.funcs = append(t.funcs, f)
	t.reachedParam[f] = make([]map[int]*provStep, len(f.params))
	return f
}

func funcDisplayName(pkg *Package, obj *types.Func) string {
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		name := rt.String()
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return fmt.Sprintf("%s.(%s).%s", pkg.Name, name, obj.Name())
	}
	return pkg.Name + "." + obj.Name()
}

// collectSeeds resolves //metalint:secret directives to the variable
// and field objects they mark. A directive covers declarations on its
// own line and the line below; Names selects among them.
func (t *tracker) collectSeeds() {
	for _, pkg := range t.pkgs {
		for _, d := range pkg.SecretDirectives() {
			names := make(map[string]bool, len(d.Names))
			for _, n := range d.Names {
				names[n] = true
			}
			var cands []*types.Var
			for id, obj := range pkg.Info.Defs {
				v, ok := obj.(*types.Var)
				if !ok || !names[id.Name] {
					continue
				}
				pos := t.fset.Position(id.Pos())
				if pos.Filename != d.Pos.Filename || (pos.Line != d.Pos.Line && pos.Line != d.Pos.Line+1) {
					continue
				}
				cands = append(cands, v)
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].Pos() < cands[j].Pos() })
			for _, v := range cands {
				if t.seedOf[v] != nil {
					continue
				}
				s := &seedInfo{id: len(t.seeds), name: v.Name(), pos: t.fset.Position(v.Pos()), dir: d}
				t.seeds = append(t.seeds, s)
				t.seedOf[v] = s
				d.Use()
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Function-value flow: which concrete functions can a call through a
// variable or field reach?

func (t *tracker) addFuncVal(key any, f *funcInfo) bool {
	m := t.funcVals[key]
	if m == nil {
		m = make(map[*funcInfo]bool)
		t.funcVals[key] = m
	}
	if m[f] {
		return false
	}
	m[f] = true
	return true
}

// funcsAt returns the functions known to flow to key, in deterministic
// order.
func (t *tracker) funcsAt(key any) []*funcInfo {
	m := t.funcVals[key]
	if len(m) == 0 {
		return nil
	}
	out := make([]*funcInfo, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// funcsOf returns the concrete functions expression e can evaluate to
// under the current facts.
func (t *tracker) funcsOf(pkg *Package, e ast.Expr) []*funcInfo {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		switch o := pkg.Info.Uses[e].(type) {
		case *types.Func:
			if f := t.byObj[o]; f != nil {
				return []*funcInfo{f}
			}
		case *types.Var:
			return t.funcsAt(types.Object(o))
		}
	case *ast.SelectorExpr:
		switch o := pkg.Info.Uses[e.Sel].(type) {
		case *types.Func:
			if f := t.byObj[o]; f != nil {
				return []*funcInfo{f}
			}
		case *types.Var:
			return t.funcsAt(types.Object(o))
		}
	case *ast.FuncLit:
		if f := t.byLit[e]; f != nil {
			return []*funcInfo{f}
		}
	case *ast.CallExpr:
		var out []*funcInfo
		for _, b := range t.resolveCall(pkg, e) {
			out = append(out, t.funcsAt(resultKey{b.g, 0})...)
		}
		return out
	}
	return nil
}

// funcFlowFixpoint iterates assignment-shaped flows of function values
// until no new fact appears. Dynamic calls are re-resolved each round,
// so a function stored in a field and later called through it is
// reached even when the store is only discovered via another dynamic
// call.
func (t *tracker) funcFlowFixpoint() {
	for round := 0; round < 32; round++ {
		changed := false
		for _, f := range t.funcs {
			if t.funcFlowWalk(f) {
				changed = true
			}
		}
		for _, pkg := range t.pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						if t.flowAssign(pkg, nil, identExprs(vs.Names), vs.Values) {
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// funcFlowWalk performs one round of function-value flow collection
// over f's body (not descending into nested literals, which are their
// own funcInfos).
func (t *tracker) funcFlowWalk(f *funcInfo) bool {
	changed := false
	ast.Inspect(f.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Nested literals are their own funcInfos; their bodies are
			// walked in their own rounds.
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if t.flowAssign(f.pkg, f, n.Lhs, n.Rhs) {
				changed = true
			}
		case *ast.ValueSpec:
			if t.flowAssign(f.pkg, f, identExprs(n.Names), n.Values) {
				changed = true
			}
		case *ast.ReturnStmt:
			for i, r := range n.Results {
				if i >= len(f.resultVars) {
					break
				}
				for _, g := range t.funcsOf(f.pkg, r) {
					if t.addFuncVal(resultKey{f, i}, g) {
						changed = true
					}
				}
			}
		case *ast.CompositeLit:
			if t.flowCompositeLit(f.pkg, n) {
				changed = true
			}
		case *ast.CallExpr:
			for _, b := range t.resolveCall(f.pkg, n) {
				exprs := b.positional()
				for i, e := range exprs {
					pi := b.paramFor(i, len(exprs))
					if pi < 0 || pi >= len(b.g.params) {
						continue
					}
					for _, g2 := range t.funcsOf(f.pkg, e) {
						if t.addFuncVal(types.Object(b.g.params[pi]), g2) {
							changed = true
						}
					}
				}
			}
		}
		return true
	})
	return changed
}

func (t *tracker) flowAssign(pkg *Package, f *funcInfo, lhs, rhs []ast.Expr) bool {
	changed := false
	assignTo := func(target ast.Expr, gs []*funcInfo) {
		obj := assignTargetObj(pkg, target)
		if obj == nil {
			return
		}
		for _, g := range gs {
			if t.addFuncVal(obj, g) {
				changed = true
			}
		}
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := unparen(rhs[0]).(*ast.CallExpr); ok {
			for i, target := range lhs {
				var gs []*funcInfo
				for _, b := range t.resolveCall(pkg, call) {
					gs = append(gs, t.funcsAt(resultKey{b.g, i})...)
				}
				assignTo(target, gs)
			}
			return changed
		}
	}
	for i, target := range lhs {
		if i < len(rhs) {
			assignTo(target, t.funcsOf(pkg, rhs[i]))
		}
	}
	return changed
}

// assignTargetObj resolves the object an assignment target stores into
// (a variable via ident, or a struct field via selector).
func assignTargetObj(pkg *Package, target ast.Expr) types.Object {
	switch target := unparen(target).(type) {
	case *ast.Ident:
		if o := pkg.Info.Defs[target]; o != nil {
			return o
		}
		return pkg.Info.Uses[target]
	case *ast.SelectorExpr:
		if o, ok := pkg.Info.Uses[target.Sel].(*types.Var); ok {
			return o
		}
	}
	return nil
}

func (t *tracker) flowCompositeLit(pkg *Package, lit *ast.CompositeLit) bool {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return false
	}
	st, ok := deref(tv.Type).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	changed := false
	for i, el := range lit.Elts {
		var field types.Object
		value := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			field = pkg.Info.Uses[key]
			value = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i)
		}
		if field == nil {
			continue
		}
		for _, g := range t.funcsOf(pkg, value) {
			if t.addFuncVal(field, g) {
				changed = true
			}
		}
	}
	return changed
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// ---------------------------------------------------------------------------
// Call resolution shared by the function-value pass and the taint
// walker.

type callBinding struct {
	g    *funcInfo
	recv ast.Expr // non-nil for method calls through a receiver value
	args []ast.Expr
}

// positional returns the argument expressions in parameter order
// (receiver first when present).
func (b callBinding) positional() []ast.Expr {
	if b.recv == nil {
		return b.args
	}
	out := make([]ast.Expr, 0, len(b.args)+1)
	out = append(out, b.recv)
	return append(out, b.args...)
}

// paramFor maps positional argument i to a parameter index, absorbing
// variadic tails and the bound-receiver offset (a method value called
// with one fewer argument than the method has parameters).
func (b callBinding) paramFor(i, nargs int) int {
	offset := 0
	if nargs == len(b.g.params)-1 {
		offset = 1
	}
	pi := i + offset
	if b.g.sig.Variadic() && pi >= len(b.g.params)-1 {
		pi = len(b.g.params) - 1
	}
	return pi
}

// resolveCall returns the concrete in-tree functions a call can reach:
// statically for declared functions and methods, via the
// function-value facts for calls through variables and fields. An
// empty result means the callee is unknown (interface method, standard
// library, unresolved value).
func (t *tracker) resolveCall(pkg *Package, call *ast.CallExpr) []callBinding {
	if isConversion(pkg.Info, call) {
		return nil
	}
	fun := unparen(call.Fun)
	switch fn := fun.(type) {
	case *ast.Ident:
		switch o := pkg.Info.Uses[fn].(type) {
		case *types.Func:
			if g := t.byObj[o]; g != nil {
				return []callBinding{{g: g, args: call.Args}}
			}
		case *types.Var:
			var out []callBinding
			for _, g := range t.funcsAt(types.Object(o)) {
				out = append(out, callBinding{g: g, args: call.Args})
			}
			return out
		}
	case *ast.SelectorExpr:
		switch o := pkg.Info.Uses[fn.Sel].(type) {
		case *types.Func:
			sig, _ := o.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				return nil // interface dispatch: unknown
			}
			g := t.byObj[o]
			if g == nil {
				return nil
			}
			if sel := pkg.Info.Selections[fn]; sel != nil && sel.Kind() == types.MethodVal {
				return []callBinding{{g: g, recv: fn.X, args: call.Args}}
			}
			// Qualified function or method expression: arguments map
			// positionally (a method expression's first argument is the
			// receiver, which is also params[0]).
			return []callBinding{{g: g, args: call.Args}}
		case *types.Var:
			var out []callBinding
			for _, g := range t.funcsAt(types.Object(o)) {
				out = append(out, callBinding{g: g, args: call.Args})
			}
			return out
		}
	case *ast.FuncLit:
		if g := t.byLit[fn]; g != nil {
			return []callBinding{{g: g, args: call.Args}}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The taint walker: one pass over a function body, either growing the
// symbolic environment and summaries (fixpoint mode) or additionally
// recording sinks, call arguments, and shared writes (record mode).

type walker struct {
	t      *tracker
	f      *funcInfo
	record bool
	change bool
}

func (t *tracker) analyze(f *funcInfo, record bool) bool {
	changedAny := false
	for iter := 0; iter < 64; iter++ {
		w := &walker{t: t, f: f, record: record}
		for _, s := range f.body.List {
			w.stmt(s)
		}
		if w.change {
			changedAny = true
		}
		if record || !w.change {
			break
		}
	}
	return changedAny
}

func (w *walker) info() *types.Info { return w.f.pkg.Info }

// classify places an object in the function's addressing scheme.
const (
	objNone = iota
	objParam
	objLocal
	objShared
)

func (w *walker) classify(obj types.Object) (int, int) {
	v, ok := obj.(*types.Var)
	if !ok {
		return objNone, 0
	}
	if i, ok := w.f.paramIdx[v]; ok {
		return objParam, i
	}
	if v.Pos() >= w.f.span[0] && v.Pos() < w.f.span[1] {
		return objLocal, 0
	}
	return objShared, 0
}

func (w *walker) envVal(obj types.Object) symval {
	if sv := w.f.env[obj]; sv != nil {
		return *sv
	}
	return symval{}
}

func (w *walker) envAdd(obj types.Object, val symval) {
	if val.empty() {
		return
	}
	sv := w.f.env[obj]
	if sv == nil {
		sv = &symval{}
		w.f.env[obj] = sv
	}
	if sv.add(val) {
		w.change = true
	}
}

// objRead returns the taint of reading obj inside f.
func (w *walker) objRead(obj types.Object) symval {
	var out symval
	if seed := w.t.seedOf[obj]; seed != nil {
		out.add(symval{seeds: seed.bit()})
	}
	switch kind, i := w.classify(obj); kind {
	case objParam:
		out.add(symval{params: 1 << uint(i)})
		out.add(w.envVal(obj)) // taint written through the parameter locally
	case objLocal:
		out.add(w.envVal(obj))
		// A local can be captured by a nested function literal, whose
		// writes surface as shared-object flows; reading through the
		// shared channel too keeps the two views coherent.
		out.add(symval{globals: map[types.Object]bool{obj: true}})
	case objShared:
		out.add(symval{globals: map[types.Object]bool{obj: true}})
	}
	return out
}

// taintObj models a write of val into obj's referent.
func (w *walker) taintObj(obj types.Object, val symval, pos token.Pos) {
	if obj == nil || val.empty() {
		return
	}
	switch kind, i := w.classify(obj); kind {
	case objParam:
		w.envAdd(obj, val)
		if refLike(obj.Type(), nil) {
			if w.f.mutParams[i].add(val) {
				w.change = true
			}
		}
	case objLocal:
		w.envAdd(obj, val)
		// Mirror the write into the shared channel so nested literals
		// capturing this local observe it (see objRead).
		if w.record {
			w.t.globalWrites = append(w.t.globalWrites, globalWriteRec{f: w.f, pos: pos, obj: obj, deps: val})
		}
	case objShared:
		if w.record {
			w.t.globalWrites = append(w.t.globalWrites, globalWriteRec{f: w.f, pos: pos, obj: obj, deps: val})
		}
	}
}

// refLike reports whether writes through a value of this type can be
// observed by the caller (pointers, slices, maps, chans, interfaces,
// funcs, or aggregates containing them).
func refLike(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLike(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return refLike(u.Elem(), seen)
	}
	return false
}

// writeTarget resolves where a write through e lands: the field object
// for a struct-field selector (field-granular taint — writing x.f[i]
// taints field f, not all of x), the owning variable otherwise.
func (w *walker) writeTarget(e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			if o := w.info().Uses[x]; o != nil {
				return o
			}
			return w.info().Defs[x]
		case *ast.SelectorExpr:
			if sel := w.info().Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				return sel.Obj()
			}
			return w.info().Uses[x.Sel]
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (w *walker) sink(pos token.Pos, kind string, e ast.Expr, deps symval) {
	if !w.record || deps.empty() {
		return
	}
	desc := types.ExprString(e)
	if len(desc) > 60 {
		desc = desc[:57] + "..."
	}
	w.t.sinks = append(w.t.sinks, sinkRec{f: w.f, pos: pos, kind: kind, desc: desc, deps: deps})
}

// expr computes the symbolic taint of e, recording index/alloc/spread
// sinks found inside it when in record mode.
func (w *walker) expr(e ast.Expr) symval {
	var out symval
	if e == nil {
		return out
	}
	if tv, ok := w.info().Types[e]; ok && tv.Value != nil {
		return out // constant expressions carry no secret
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := w.info().Uses[e]
		if obj == nil {
			obj = w.info().Defs[e]
		}
		if _, ok := obj.(*types.Var); ok {
			out.add(w.objRead(obj))
		}
	case *ast.ParenExpr:
		out.add(w.expr(e.X))
	case *ast.SelectorExpr:
		if sel := w.info().Selections[e]; sel != nil {
			switch sel.Kind() {
			case types.FieldVal:
				// Field taint is field-granular: reading x.f carries the
				// taint written into field f (anywhere) plus the taint of
				// the struct value itself, but NOT of x's other fields —
				// whole-struct coarseness would smear a tainted trace
				// field onto the page IDs stored beside it.
				out.add(w.expr(e.X))
				if fv, ok := sel.Obj().(*types.Var); ok {
					out.add(symval{globals: map[types.Object]bool{fv: true}})
					if seed := w.t.seedOf[fv]; seed != nil {
						out.add(symval{seeds: seed.bit()})
					}
				}
			case types.MethodVal:
				out.add(w.expr(e.X))
			}
		} else if obj, ok := w.info().Uses[e.Sel].(*types.Var); ok {
			// Qualified reference to another package's variable.
			out.add(w.objRead(obj))
		}
	case *ast.IndexExpr:
		if tv, ok := w.info().Types[e.Index]; ok && tv.IsType() {
			out.add(w.expr(e.X)) // generic instantiation, not an index
			break
		}
		idx := w.expr(e.Index)
		w.sink(e.Pos(), "index", e, idx)
		out.add(w.expr(e.X))
		out.add(idx)
	case *ast.IndexListExpr:
		out.add(w.expr(e.X))
	case *ast.SliceExpr:
		// Bounds are deliberately not sinks (documented limit); their
		// taint still flows into the value.
		out.add(w.expr(e.X))
		out.add(w.expr(e.Low))
		out.add(w.expr(e.High))
		out.add(w.expr(e.Max))
	case *ast.StarExpr:
		out.add(w.expr(e.X))
	case *ast.UnaryExpr:
		out.add(w.expr(e.X))
	case *ast.BinaryExpr:
		out.add(w.expr(e.X))
		out.add(w.expr(e.Y))
	case *ast.TypeAssertExpr:
		out.add(w.expr(e.X))
	case *ast.CompositeLit:
		var st *types.Struct
		isMap := false
		if tv, ok := w.info().Types[e]; ok {
			switch u := deref(tv.Type).Underlying().(type) {
			case *types.Struct:
				st = u
			case *types.Map:
				isMap = true
			}
		}
		for i, el := range e.Elts {
			if st != nil {
				// Struct literal: entries land in their fields
				// (field-granular, like assignments), not in the value.
				var field types.Object
				value := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						field = w.info().Uses[key]
					}
					value = kv.Value
				} else if i < st.NumFields() {
					field = st.Field(i)
				}
				w.taintObj(field, w.expr(value), el.Pos())
				continue
			}
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if isMap {
					out.add(w.expr(kv.Key))
				}
				out.add(w.expr(kv.Value))
				continue
			}
			out.add(w.expr(el))
		}
	case *ast.CallExpr:
		out.add(w.call(e))
	case *ast.FuncLit:
		// The closure value itself is clean; its body is analyzed as
		// its own function, with captured locals as shared objects.
	}
	return out
}

// call models a call expression's result taint plus its side effects
// (argument hand-off records, callee mutation summaries, builtins).
func (w *walker) call(call *ast.CallExpr) symval {
	return w.callN(call, 1)[0]
}

// callN models a call with n expected results.
func (w *walker) callN(call *ast.CallExpr, n int) []symval {
	out := make([]symval, n)
	if isConversion(w.info(), call) {
		if len(call.Args) == 1 {
			out[0].add(w.expr(call.Args[0]))
		}
		return out
	}
	// Variadic spread of a tainted slice is a sink regardless of the
	// callee: the argument count (and the copy) depend on the secret.
	if call.Ellipsis.IsValid() && len(call.Args) > 0 {
		last := call.Args[len(call.Args)-1]
		w.sink(call.Ellipsis, "spread", last, w.expr(last))
	}
	if bi, ok := callee(w.info(), call).(*types.Builtin); ok {
		out[0].add(w.builtin(call, bi))
		return out
	}
	bindings := w.t.resolveCall(w.f.pkg, call)
	if len(bindings) == 0 {
		// Unknown callee (interface method, standard library,
		// unresolved value): results derive from all arguments and the
		// receiver; side effects are not modelled.
		var uv symval
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s := w.info().Selections[sel]; s != nil {
				uv.add(w.expr(sel.X))
			}
		}
		for _, a := range call.Args {
			uv.add(w.expr(a))
		}
		for i := range out {
			out[i].add(uv)
		}
		return out
	}
	for _, b := range bindings {
		exprs := b.positional()
		argvals := make([]symval, len(b.g.params))
		roots := make([]types.Object, len(b.g.params))
		for i, e := range exprs {
			pi := b.paramFor(i, len(exprs))
			if pi < 0 || pi >= len(argvals) {
				continue
			}
			argvals[pi].add(w.expr(e))
			if roots[pi] == nil {
				roots[pi] = w.writeTarget(e)
			}
		}
		if w.record {
			for pi := range argvals {
				if argvals[pi].empty() {
					continue
				}
				w.t.callArgs = append(w.t.callArgs, callArgRec{
					f: w.f, pos: call.Pos(), callee: b.g, param: pi, deps: argvals[pi],
				})
			}
		}
		// Mutation summaries: data the callee writes through parameter
		// pi lands in the argument's root object.
		for pi := range b.g.mutParams {
			mv := b.g.mutParams[pi]
			if mv.empty() || roots[pi] == nil {
				continue
			}
			w.taintObj(roots[pi], instantiate(mv, argvals), call.Pos())
		}
		for i := range out {
			if i < len(b.g.results) {
				out[i].add(instantiate(b.g.results[i], argvals))
			}
		}
	}
	return out
}

// instantiate maps a callee-domain symbolic value into the caller's
// domain by substituting this call site's argument taints for the
// callee's parameter bits.
func instantiate(sv symval, argvals []symval) symval {
	out := symval{seeds: sv.seeds}
	for g := range sv.globals {
		if out.globals == nil {
			out.globals = make(map[types.Object]bool)
		}
		out.globals[g] = true
	}
	for i := 0; i < len(argvals) && i < 64; i++ {
		if sv.params&(1<<uint(i)) != 0 {
			out.add(argvals[i])
		}
	}
	return out
}

func (w *walker) builtin(call *ast.CallExpr, bi *types.Builtin) symval {
	var out symval
	switch bi.Name() {
	case "len", "cap":
		// A secret value's length (limb count, buffer size) is itself
		// secret: it bounds loops and sizes allocations.
		out.add(w.expr(call.Args[0]))
	case "append":
		for _, a := range call.Args {
			out.add(w.expr(a))
		}
	case "make":
		var size symval
		for _, a := range call.Args[1:] {
			size.add(w.expr(a))
		}
		w.sink(call.Pos(), "alloc", call, size)
		out.add(size)
	case "copy":
		if len(call.Args) == 2 {
			src := w.expr(call.Args[1])
			w.taintObj(w.writeTarget(call.Args[0]), src, call.Pos())
			out.add(src)
			out.add(w.expr(call.Args[0]))
		}
	case "min", "max", "complex", "real", "imag":
		for _, a := range call.Args {
			out.add(w.expr(a))
		}
	default:
		// new, delete, clear, panic, print, println, recover: no
		// result taint worth modelling.
		for _, a := range call.Args {
			w.expr(a) // still record sinks inside the arguments
		}
	}
	return out
}

// rhsValues evaluates the right-hand side of an n-target assignment.
func (w *walker) rhsValues(rhs []ast.Expr, n int) []symval {
	if len(rhs) == 1 && n > 1 {
		if call, ok := unparen(rhs[0]).(*ast.CallExpr); ok {
			return w.callN(call, n)
		}
		// v, ok := m[k] / x.(T) / <-ch: both values carry the operand's
		// taint (presence is data-dependent too).
		v := w.expr(rhs[0])
		out := make([]symval, n)
		for i := range out {
			out[i].add(v)
		}
		return out
	}
	out := make([]symval, n)
	for i := range out {
		if i < len(rhs) {
			out[i].add(w.expr(rhs[i]))
		}
	}
	return out
}

// assignTo models storing val into target.
func (w *walker) assignTo(target ast.Expr, val symval) {
	switch x := unparen(target).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := w.info().Defs[x]
		if obj == nil {
			obj = w.info().Uses[x]
		}
		w.taintObj(obj, val, x.Pos())
	case *ast.SelectorExpr:
		w.taintObj(w.writeTarget(x), val, x.Pos())
	case *ast.IndexExpr:
		idx := w.expr(x.Index)
		w.sink(x.Pos(), "index", x, idx)
		var both symval
		both.add(val)
		both.add(idx)
		w.taintObj(w.writeTarget(x.X), both, x.Pos())
	case *ast.StarExpr:
		w.taintObj(w.writeTarget(x.X), val, x.Pos())
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			// Op-assign: x op= e unions e's taint into x (the old value
			// persists because taint only grows).
			var val symval
			val.add(w.expr(s.Lhs[0]))
			val.add(w.expr(s.Rhs[0]))
			w.assignTo(s.Lhs[0], val)
			return
		}
		vals := w.rhsValues(s.Rhs, len(s.Lhs))
		for i, target := range s.Lhs {
			w.assignTo(target, vals[i])
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			vals := w.rhsValues(vs.Values, len(vs.Names))
			for i, name := range vs.Names {
				w.assignTo(name, vals[i])
			}
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.IfStmt:
		w.stmt(s.Init)
		cond := w.expr(s.Cond)
		w.sink(s.Pos(), "branch", s.Cond, cond)
		w.stmtBlock(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			cond := w.expr(s.Cond)
			w.sink(s.Pos(), "loop-bound", s.Cond, cond)
		}
		w.stmt(s.Post)
		w.stmtBlock(s.Body)
	case *ast.RangeStmt:
		x := w.expr(s.X)
		overArray := false
		if tv, ok := w.info().Types[s.X]; ok {
			switch deref(tv.Type).Underlying().(type) {
			case *types.Array:
				overArray = true // fixed trip count: not a bound sink
			}
		}
		if !overArray {
			w.sink(s.Pos(), "loop-bound", s.X, x)
		}
		if s.Key != nil && !overArray {
			w.assignTo(s.Key, x)
		}
		if s.Value != nil {
			w.assignTo(s.Value, x)
		}
		w.stmtBlock(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		var tag symval
		if s.Tag != nil {
			tag = w.expr(s.Tag)
			w.sink(s.Pos(), "branch", s.Tag, tag)
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			var cv symval
			for _, e := range clause.List {
				cv.add(w.expr(e))
			}
			if s.Tag == nil {
				// case-expression switch: each clause is a condition
				w.sinkClause(clause, cv)
			} else {
				w.sinkClause(clause, cv) // tainted comparand
			}
			for _, bs := range clause.Body {
				w.stmt(bs)
			}
		}
	case *ast.TypeSwitchStmt:
		// The dynamic type of a secret is out of scope (documented
		// limit); bodies are still walked.
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for _, cc := range s.Body.List {
			for _, bs := range cc.(*ast.CaseClause).Body {
				w.stmt(bs)
			}
		}
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			// Bare return: named results carry their current env taint.
			for i, rv := range w.f.resultVars {
				if rv != nil && rv.Name() != "" {
					if w.f.results[i].add(w.envVal(rv)) {
						w.change = true
					}
				}
			}
			return
		}
		if len(s.Results) == 1 && len(w.f.resultVars) > 1 {
			if call, ok := unparen(s.Results[0]).(*ast.CallExpr); ok {
				vals := w.callN(call, len(w.f.resultVars))
				for i := range w.f.resultVars {
					if w.f.results[i].add(vals[i]) {
						w.change = true
					}
				}
				return
			}
		}
		for i, r := range s.Results {
			if i >= len(w.f.results) {
				break
			}
			if w.f.results[i].add(w.expr(r)) {
				w.change = true
			}
		}
	case *ast.BlockStmt:
		w.stmtBlock(s)
	case *ast.DeferStmt:
		w.call(s.Call)
	case *ast.GoStmt:
		w.call(s.Call)
	case *ast.SendStmt:
		// Channel flows are out of scope (documented limit); operand
		// sinks are still recorded.
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			w.stmt(comm.Comm)
			for _, bs := range comm.Body {
				w.stmt(bs)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *walker) sinkClause(clause *ast.CaseClause, deps symval) {
	if len(clause.List) == 0 || deps.empty() {
		return
	}
	w.sink(clause.Pos(), "branch", clause.List[0], deps)
}

func (w *walker) stmtBlock(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		w.stmt(s)
	}
}

// ---------------------------------------------------------------------------
// Concrete propagation: push seeds through the recorded call-argument
// and shared-write hand-offs, with provenance.

// instSeeds resolves a symbolic dependency set inside f to the seeds
// concretely reaching it, each with the provenance chain that carried
// it there (nil chain: the seed is read directly in f).
func (t *tracker) instSeeds(f *funcInfo, deps symval) map[int]*provStep {
	out := make(map[int]*provStep)
	for _, s := range t.seeds {
		if deps.seeds&s.bit() != 0 {
			if _, ok := out[s.id]; !ok {
				out[s.id] = nil
			}
		}
	}
	for i := 0; i < len(t.reachedParam[f]) && i < 64; i++ {
		if deps.params&(1<<uint(i)) == 0 {
			continue
		}
		for _, id := range sortedSeedIDs(t.reachedParam[f][i]) {
			if _, ok := out[id]; !ok {
				out[id] = t.reachedParam[f][i][id]
			}
		}
	}
	for _, g := range sortedObjs(deps.globals) {
		for _, id := range sortedSeedIDs(t.reachedShared[g]) {
			if _, ok := out[id]; !ok {
				out[id] = t.reachedShared[g][id]
			}
		}
	}
	return out
}

func sortedSeedIDs(m map[int]*provStep) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func sortedObjs(m map[types.Object]bool) []types.Object {
	if len(m) == 0 {
		return nil
	}
	out := make([]types.Object, 0, len(m))
	for o := range m {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// propagate runs the concrete seed fixpoint over the recorded
// hand-offs.
func (t *tracker) propagate() {
	for round := 0; round < 1024; round++ {
		changed := false
		for _, ca := range t.callArgs {
			reached := t.instSeeds(ca.f, ca.deps)
			slot := t.reachedParam[ca.callee]
			if slot[ca.param] == nil {
				slot[ca.param] = make(map[int]*provStep)
			}
			pname := ""
			if ca.param < len(ca.callee.params) {
				pname = ca.callee.params[ca.param].Name()
			}
			for _, id := range sortedSeedIDsOf(reached) {
				if _, ok := slot[ca.param][id]; ok {
					continue
				}
				slot[ca.param][id] = &provStep{
					pos:    t.fset.Position(ca.pos),
					desc:   fmt.Sprintf("arg %s to %s", pname, ca.callee.name),
					parent: reached[id],
				}
				changed = true
			}
		}
		for _, gw := range t.globalWrites {
			reached := t.instSeeds(gw.f, gw.deps)
			slot := t.reachedShared[gw.obj]
			if slot == nil {
				slot = make(map[int]*provStep)
				t.reachedShared[gw.obj] = slot
			}
			for _, id := range sortedSeedIDsOf(reached) {
				if _, ok := slot[id]; ok {
					continue
				}
				slot[id] = &provStep{
					pos:    t.fset.Position(gw.pos),
					desc:   fmt.Sprintf("stored into %s", gw.obj.Name()),
					parent: reached[id],
				}
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func sortedSeedIDsOf(m map[int]*provStep) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// chainFor renders the seed-to-sink provenance for one sink, seed
// first.
func (t *tracker) chainFor(sink sinkRec, seedID int, prov *provStep) []ChainStep {
	seed := t.seeds[seedID]
	var hops []ChainStep
	for p := prov; p != nil; p = p.parent {
		hops = append(hops, ChainStep{Desc: p.desc, File: p.pos.Filename, Line: p.pos.Line})
		if len(hops) > 32 {
			break
		}
	}
	// hops were collected sink-to-seed; reverse them.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	pos := t.fset.Position(sink.pos)
	chain := []ChainStep{{Desc: "secret " + seed.name, File: seed.pos.Filename, Line: seed.pos.Line}}
	chain = append(chain, hops...)
	return append(chain, ChainStep{Desc: sink.kind + " " + sink.desc, File: pos.Filename, Line: pos.Line})
}

func chainString(chain []ChainStep) string {
	parts := make([]string, len(chain))
	for i, c := range chain {
		parts[i] = fmt.Sprintf("%s (%s:%d)", c.Desc, filepath.Base(c.File), c.Line)
	}
	return strings.Join(parts, " -> ")
}
