package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadCode reports the functions and methods that no binary reaches. It
// is a whole-program reachability pass (rapid type analysis over the
// typed AST) from these roots:
//
//   - every main, every init and every package-level initializer;
//   - every function of examples/* and perfbench/ (perfbench is an
//     unedited benchmark, so it is a root and is never reported);
//   - the facade API: the module root package's exported functions,
//     plus the exported method sets (promoted methods included) of the
//     types it declares or re-exports.
//
// A reached body reaches every function and method it names: calls,
// function values and method values alike; generic code is reached
// through its origin. An interface-method call reaches the same-named
// methods of every type that reachable code converts to an interface.
// The standard library calls through its own interfaces out of sight,
// so converting to one of them reaches its method names, and the
// methods fmt, errors and encoding/json find by reflection count once
// their type, or any type holding it, is converted to an interface.
//
// Test files are neither roots nor reported, and struct fields are out
// of scope (encoding/json and -set reach them by reflection). The pass
// needs the whole module: it stays silent unless the load includes the
// module's root package. A function kept for a test (a reference model
// or a fault hook) says so:
//
//	//metalint:allow deadcode reference model for TestGhashTableMatchesBitSerial
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc: "report functions and methods unreachable from every main, init, " +
		"package initializer, example, perfbench and the facade API: code no " +
		"binary runs is code no experiment exercises",
	RunProgram: runDeadCode,
}

// reflectedMethods are the methods fmt, errors and encoding/json look
// up dynamically on the values they are handed.
var reflectedMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// Levels of typeSeen: a type reached by reflection from a converted
// value, or converted itself (its method set is the interface's).
const (
	seenReflected = 1
	seenConverted = 2
)

type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

type deadcode struct {
	decls   map[*types.Func]funcDecl
	order   []*types.Func // decls in load order
	inTree  map[*types.Package]bool
	reached map[*types.Func]bool
	queue   []*types.Func
	// Interface dispatch: the method names reachable code calls through
	// an interface, how far each named type is converted, and the
	// methods of seen types indexed by name.
	names    map[string]bool
	typeSeen map[*types.TypeName]int
	byName   map[string][]*types.Func
}

func runDeadCode(pass *ProgramPass) {
	var root *Package
	for _, pkg := range pass.Pkgs {
		if pkg.Root {
			root = pkg
		}
	}
	if root == nil {
		return
	}
	d := &deadcode{
		decls:    make(map[*types.Func]funcDecl),
		inTree:   make(map[*types.Package]bool),
		reached:  make(map[*types.Func]bool),
		names:    make(map[string]bool),
		typeSeen: make(map[*types.TypeName]int),
		byName:   make(map[string][]*types.Func),
	}
	for _, pkg := range pass.Pkgs {
		d.inTree[pkg.Types] = true
		for _, f := range pkg.Files {
			if isTestFile(pass.Fset.Position(f.Package).Filename) {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						d.decls[fn] = funcDecl{pkg, fd}
						d.order = append(d.order, fn)
					}
				}
			}
		}
	}

	for _, pkg := range pass.Pkgs {
		rel := strings.TrimPrefix(pkg.Path, root.Path+"/")
		whole := rel == "perfbench" || strings.HasPrefix(rel, "perfbench/") || strings.HasPrefix(rel, "examples/")
		for _, f := range pkg.Files {
			if isTestFile(pass.Fset.Position(f.Package).Filename) {
				continue
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					name := decl.Name.Name
					if whole || decl.Recv == nil && (name == "init" || name == "main" && pkg.Name == "main" ||
						pkg == root && ast.IsExported(name)) {
						d.reach(pkg.Info.Defs[decl.Name])
					}
				case *ast.GenDecl:
					if decl.Tok == token.VAR {
						d.walk(pkg, nil, decl)
					}
				}
			}
		}
	}
	scope := root.Types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
			d.facadeType(tn.Type())
		}
	}

	for len(d.queue) > 0 {
		fn := d.queue[len(d.queue)-1]
		d.queue = d.queue[:len(d.queue)-1]
		fd := d.decls[fn]
		d.walk(fd.pkg, fn.Type().(*types.Signature), fd.decl.Body)
	}

	for _, fn := range d.order {
		if fd := d.decls[fn]; !d.reached[fn] {
			pass.Reportf(fd.pkg, fd.decl.Pos(),
				"%s is unreachable from every main, init, package initializer, example and the facade API: delete it or annotate //metalint:allow deadcode <reason>",
				funcLabel(fn))
		}
	}
}

// funcLabel names a function as its declaration reads: F, T.M or (*T).M.
func funcLabel(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "func " + fn.Name()
	}
	t, star := recv.Type(), ""
	if p, ok := t.(*types.Pointer); ok {
		t, star = p.Elem(), "*"
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return "method (" + star + n.Obj().Name() + ")." + fn.Name()
	}
	return "method " + fn.Name()
}

// reach marks an in-tree declared function reached and queues its body.
func (d *deadcode) reach(obj types.Object) {
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	fn = fn.Origin()
	if isInterfaceMethod(fn) {
		d.addName(fn.Name())
		return
	}
	if _, ok := d.decls[fn]; !ok || d.reached[fn] {
		return
	}
	d.reached[fn] = true
	d.queue = append(d.queue, fn)
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// addName records a method name called through an interface and
// reaches it on every converted type.
func (d *deadcode) addName(name string) {
	if d.names[name] {
		return
	}
	d.names[name] = true
	for _, m := range d.byName[name] {
		d.dispatch(m)
	}
}

// dispatch reaches m if a dynamic call can land on it.
func (d *deadcode) dispatch(m *types.Func) {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	seen := d.typeSeen[types.Unalias(recv).(*types.Named).Obj()]
	if seen == seenConverted && d.names[m.Name()] || seen > 0 && reflectedMethods[m.Name()] {
		d.reach(m)
	}
}

// facadeType reaches the exported method set of a facade type.
func (d *deadcode) facadeType(t types.Type) {
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			d.addName(iface.Method(i).Name())
		}
		return
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj(); m.Exported() {
			d.reach(m)
		}
	}
}

// convert records that a value of type src is stored in a variable of
// type dst; only a conversion to an interface matters.
func (d *deadcode) convert(dst, src types.Type) {
	if dst == nil || src == nil || !types.IsInterface(dst) {
		return
	}
	if named, ok := types.Unalias(dst).(*types.Named); ok && !d.inTree[named.Obj().Pkg()] {
		iface := named.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			d.addName(iface.Method(i).Name())
		}
	}
	if !types.IsInterface(src) {
		d.seeType(src, seenConverted)
	}
}

// seeType marks the named types a converted value of type t carries:
// t itself and the types it embeds are converted (their methods are in
// the interface's method set); everything else it holds is reached by
// reflection.
func (d *deadcode) seeType(t types.Type, level int) {
	switch t := types.Unalias(t).(type) {
	case *types.Pointer:
		d.seeType(t.Elem(), level)
	case *types.Named:
		tn := t.Origin().Obj()
		old := d.typeSeen[tn]
		if old >= level {
			return
		}
		d.typeSeen[tn] = level
		if old == 0 && d.inTree[tn.Pkg()] {
			for i := 0; i < t.Origin().NumMethods(); i++ {
				m := t.Origin().Method(i)
				d.byName[m.Name()] = append(d.byName[m.Name()], m)
			}
		}
		for i := 0; i < t.Origin().NumMethods(); i++ {
			d.dispatch(t.Origin().Method(i))
		}
		d.seeType(t.Underlying(), level)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if f.Embedded() {
				d.seeType(f.Type(), level)
			} else {
				d.seeType(f.Type(), seenReflected)
			}
		}
	case *types.Slice:
		d.seeType(t.Elem(), seenReflected)
	case *types.Array:
		d.seeType(t.Elem(), seenReflected)
	case *types.Map:
		d.seeType(t.Key(), seenReflected)
		d.seeType(t.Elem(), seenReflected)
	}
}

// walk visits reachable code: a function body (sig is its signature)
// or a package-level var declaration (sig is nil).
func (d *deadcode) walk(pkg *Package, sig *types.Signature, body ast.Node) {
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if s, ok := info.TypeOf(n).(*types.Signature); ok {
				d.walk(pkg, s, n.Body)
			}
			return false
		case *ast.Ident:
			d.reach(info.Uses[n])
			if inst, ok := info.Instances[n]; ok {
				for i := 0; i < inst.TypeArgs.Len(); i++ {
					d.seeType(inst.TypeArgs.At(i), seenConverted)
				}
			}
		case *ast.CallExpr:
			d.call(info, n)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				dst := make([]types.Type, len(n.Lhs))
				for i, lhs := range n.Lhs {
					dst[i] = info.TypeOf(lhs)
				}
				d.convertAll(info, dst, n.Rhs)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				dst := make([]types.Type, len(n.Names))
				for i := range dst {
					dst[i] = info.TypeOf(n.Type)
				}
				d.convertAll(info, dst, n.Values)
			}
		case *ast.ReturnStmt:
			if sig != nil {
				dst := make([]types.Type, sig.Results().Len())
				for i := range dst {
					dst[i] = sig.Results().At(i).Type()
				}
				d.convertAll(info, dst, n.Results)
			}
		case *ast.CompositeLit:
			d.compositeLit(info, n)
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				d.convert(ch.Elem(), info.TypeOf(n.Value))
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				x, y := info.TypeOf(n.X), info.TypeOf(n.Y)
				d.convert(x, y)
				d.convert(y, x)
			}
		case *ast.IndexExpr:
			if m, ok := typeUnder(info.TypeOf(n.X)).(*types.Map); ok {
				d.convert(m.Key(), info.TypeOf(n.Index))
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				tag := info.TypeOf(n.Tag)
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						d.convert(tag, info.TypeOf(e))
					}
				}
			}
		}
		return true
	})
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// convertAll pairs destination types with source expressions, spreading
// a single multi-valued source (a call or a comma-ok form) over them.
func (d *deadcode) convertAll(info *types.Info, dst []types.Type, src []ast.Expr) {
	if len(src) == 1 && len(dst) > 1 {
		if tup, ok := info.TypeOf(src[0]).(*types.Tuple); ok {
			for i := 0; i < tup.Len() && i < len(dst); i++ {
				d.convert(dst[i], tup.At(i).Type())
			}
		}
		return
	}
	for i := 0; i < len(src) && i < len(dst); i++ {
		d.convert(dst[i], info.TypeOf(src[i]))
	}
}

// call records the interface conversions of a call's arguments.
func (d *deadcode) call(info *types.Info, call *ast.CallExpr) {
	tv, ok := info.Types[unparen(call.Fun)]
	if !ok {
		return
	}
	switch {
	case tv.IsType():
		if len(call.Args) == 1 {
			d.convert(tv.Type, info.TypeOf(call.Args[0]))
		}
		return
	case tv.IsBuiltin():
		var elem types.Type
		switch callee(info, call).Name() {
		case "append":
			if s, ok := typeUnder(info.TypeOf(call)).(*types.Slice); ok && !call.Ellipsis.IsValid() {
				elem = s.Elem()
			}
		case "panic", "print", "println":
			elem = types.NewInterfaceType(nil, nil)
		}
		for _, a := range call.Args {
			d.convert(elem, info.TypeOf(a))
		}
		return
	}
	sig, ok := typeUnder(tv.Type).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := len(call.Args)
	if n == 1 {
		if tup, ok := info.TypeOf(call.Args[0]).(*types.Tuple); ok {
			n = tup.Len()
		}
	}
	dst := make([]types.Type, n)
	for i := range dst {
		switch {
		case sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid():
			dst[i] = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			dst[i] = params.At(i).Type()
		}
	}
	d.convertAll(info, dst, call.Args)
}

// compositeLit records the interface conversions of a literal's
// elements.
func (d *deadcode) compositeLit(info *types.Info, lit *ast.CompositeLit) {
	t := typeUnder(info.TypeOf(lit))
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	for i, elt := range lit.Elts {
		val, key := elt, ast.Expr(nil)
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val, key = kv.Value, kv.Key
		}
		switch t := t.(type) {
		case *types.Struct:
			if key != nil {
				if f, ok := info.Uses[key.(*ast.Ident)].(*types.Var); ok {
					d.convert(f.Type(), info.TypeOf(val))
				}
			} else if i < t.NumFields() {
				d.convert(t.Field(i).Type(), info.TypeOf(val))
			}
		case *types.Slice:
			d.convert(t.Elem(), info.TypeOf(val))
		case *types.Array:
			d.convert(t.Elem(), info.TypeOf(val))
		case *types.Map:
			if key != nil {
				d.convert(t.Key(), info.TypeOf(key))
			}
			d.convert(t.Elem(), info.TypeOf(val))
		}
	}
}
