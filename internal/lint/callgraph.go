package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// The call graph is the shared substrate of every analyzer. It is built
// once per lint run over every loaded package, resolving *static* calls only:
// package-level functions and methods whose receiver type the checker
// resolved. Calls through interfaces, function values and reflection are
// not resolved — the graph under-approximates, so interprocedural rules
// can miss through dynamic dispatch but never follow an edge that cannot
// happen. Stdlib callees (time.Now, math/rand.Intn) appear as body-less
// leaf nodes so taint sources exist in the graph.

// A FuncID names a function the way types.Func.FullName does:
// "pkg/path.Name" for package functions, "(pkg/path.T).Name" or
// "(*pkg/path.T).Name" for methods. IDs are stable across runs and
// human-readable enough to print in diagnostics traces.
type FuncID string

// A CallEdge is one static call site.
type CallEdge struct {
	Callee FuncID
	Call   *ast.CallExpr
	// InFuncLit marks calls made inside a function literal nested in the
	// caller's body. The closure may run later (or never), but whatever
	// nondeterminism or lock activity it performs is still attributed to
	// the function that created it — dettaint follows these edges,
	// lockorder does not (the closure does not run under the caller's
	// held set).
	InFuncLit bool
	fn        *types.Func // the callee, for its external node
}

// Pos is the position of the call expression.
func (e CallEdge) Pos() token.Pos { return e.Call.Pos() }

// A FuncNode is one function in the graph. Nodes with a nil Decl are
// external: imported functions whose bodies were not loaded.
type FuncNode struct {
	ID   FuncID
	Func *types.Func   // nil only for a package's var-initialiser node
	Pkg  *Package      // package the body lives in; nil for external
	Decl *ast.FuncDecl // nil for external
	// Calls lists the static call sites of the body in source order.
	Calls []CallEdge
}

// A CallGraph maps every reached FuncID to its node.
type CallGraph struct {
	Funcs map[FuncID]*FuncNode
}

// Node returns the node for id, or nil.
func (g *CallGraph) Node(id FuncID) *FuncNode {
	return g.Funcs[id]
}

// SortedIDs returns every FuncID in lexical order, for deterministic
// iteration by analyzers.
func (g *CallGraph) SortedIDs() []FuncID {
	ids := make([]FuncID, 0, len(g.Funcs))
	for id := range g.Funcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// BuildCallGraph constructs the static call graph of the loaded
// packages. Every function declaration with a body becomes an internal
// node; every resolved callee without a loaded body becomes an external
// node the first time it is called. Package initialisation is code too:
// each init function is a node of its own, and the package-level var
// initialisers of a package belong to one node, "pkg.init", whose
// synthesized body assigns them in source order.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Funcs: map[FuncID]*FuncNode{}}
	add := func(pkg *Package, id FuncID, fn *types.Func, fd *ast.FuncDecl) {
		g.Funcs[id] = &FuncNode{ID: id, Func: fn, Pkg: pkg, Decl: fd, Calls: collectCalls(pkg, fd.Body)}
	}
	for _, pkg := range pkgs {
		var varInits []ast.Stmt
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						add(pkg, declID(pkg, d), pkg.Info.Defs[d.Name].(*types.Func), d)
					}
				case *ast.GenDecl:
					varInits = append(varInits, varInitStmts(d)...)
				}
			}
		}
		if len(varInits) > 0 {
			add(pkg, FuncID(pkg.ImportPath+".init"), nil, &ast.FuncDecl{
				Name: ast.NewIdent("init"),
				Type: &ast.FuncType{},
				Body: &ast.BlockStmt{List: varInits},
			})
		}
	}
	// Materialize external leaf nodes for callees without bodies.
	for _, node := range g.Funcs {
		for _, e := range node.Calls {
			if g.Funcs[e.Callee] == nil {
				g.Funcs[e.Callee] = &FuncNode{ID: e.Callee, Func: e.fn}
			}
		}
	}
	return g
}

// declID computes the FuncID of a declaration from the checker's object,
// whose FullName handles receivers.
func declID(pkg *Package, fd *ast.FuncDecl) FuncID {
	if fd.Recv == nil && fd.Name.Name == "init" {
		// A package may declare any number of init functions, all named
		// pkg.init by the checker; their position tells them apart.
		pos := pkg.Fset.Position(fd.Pos())
		return FuncID(fmt.Sprintf("%s.init@%s:%d", pkg.ImportPath, filepath.Base(pos.Filename), pos.Line))
	}
	return FuncID(pkg.Info.Defs[fd.Name].(*types.Func).FullName())
}

// varInitStmts renders the initialised specs of a package-level var
// declaration as assignments, "a, b = f()", for the package's init node.
func varInitStmts(d *ast.GenDecl) []ast.Stmt {
	if d.Tok != token.VAR {
		return nil
	}
	var out []ast.Stmt
	for _, spec := range d.Specs {
		vs := spec.(*ast.ValueSpec)
		if len(vs.Values) == 0 {
			continue
		}
		lhs := make([]ast.Expr, len(vs.Names))
		for i, n := range vs.Names {
			lhs[i] = n
		}
		out = append(out, &ast.AssignStmt{Lhs: lhs, Tok: token.ASSIGN, Rhs: vs.Values})
	}
	return out
}

// collectCalls walks a body collecting resolved static call sites in
// source order.
func collectCalls(pkg *Package, body *ast.BlockStmt) []CallEdge {
	var edges []CallEdge
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(node ast.Node) bool {
			switch e := node.(type) {
			case *ast.FuncLit:
				walk(e.Body, true)
				return false
			case *ast.CallExpr:
				if fn := resolveCallee(pkg, e); fn != nil {
					edges = append(edges, CallEdge{Callee: FuncID(fn.FullName()), Call: e, InFuncLit: inLit, fn: fn})
				}
			}
			return true
		})
	}
	walk(body, false)
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Pos() < edges[j].Pos() })
	return edges
}

// resolveCallee resolves a call expression to a static callee. Three
// shapes resolve: plain identifiers bound to functions (same-package
// calls), qualified package functions (pkg.Fn), and method selections
// whose receiver type is concrete. Interface method calls resolve to a
// *types.Func whose receiver is the interface — those are kept as
// external nodes (no body, so nothing propagates through them), which is
// the conservative choice. It returns nil for any other call.
func resolveCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			obj = sel.Obj()
		} else { // a qualified identifier (pkg.Fn)
			obj = pkg.Info.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}
