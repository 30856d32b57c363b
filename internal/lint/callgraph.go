package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
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
	// nondeterminism it performs is still attributed to the function
	// that created it, so dettaint follows these edges. lockorder and
	// commiterr do not: a closure may run after the critical section
	// that built it has ended, and the error of a call inside it is not
	// the enclosing function's to return.
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

// Reach gives every function that reaches a seed its distance to the
// nearest one: 0 for a seed, n when the shortest chain of followed calls
// from it down to a seed has n calls. It is a breadth-first walk
// backwards over the call edges follow accepts, and it enters only the
// callers admit accepts, so no chain runs through a caller admit
// refuses. Recursion needs no special case.
func (g *CallGraph) Reach(seed func(*FuncNode) bool, follow func(CallEdge) bool, admit func(*FuncNode) bool) map[FuncID]int {
	dist := map[FuncID]int{}
	callers := map[FuncID][]FuncID{}
	var queue []FuncID
	for _, id := range g.SortedIDs() {
		if seed(g.Funcs[id]) {
			dist[id] = 0
			queue = append(queue, id)
		}
		for _, e := range g.Funcs[id].Calls {
			if follow(e) {
				callers[e.Callee] = append(callers[e.Callee], id)
			}
		}
	}
	for ; len(queue) > 0; queue = queue[1:] {
		for _, c := range callers[queue[0]] {
			if _, ok := dist[c]; !ok && admit(g.Funcs[c]) {
				dist[c] = dist[queue[0]] + 1
				queue = append(queue, c)
			}
		}
	}
	return dist
}

// Chain returns the shortest chain of followed calls from id down to a
// seed of dist, a Reach result with the same follow: id first, the seed
// last. Each step takes the first followed call, in source order, whose
// callee is one step nearer, so ties break the same way every run. It
// also returns the call that starts the chain, the zero CallEdge when id
// is a seed.
func (g *CallGraph) Chain(dist map[FuncID]int, id FuncID, follow func(CallEdge) bool) ([]FuncID, CallEdge) {
	chain := []FuncID{id}
	var first CallEdge
	for d := dist[id] - 1; d >= 0; d-- {
		calls := g.Funcs[chain[len(chain)-1]].Calls
		e := calls[slices.IndexFunc(calls, func(e CallEdge) bool {
			n, ok := dist[e.Callee]
			return ok && n == d && follow(e)
		})]
		if len(chain) == 1 {
			first = e
		}
		chain = append(chain, e.Callee)
	}
	return chain, first
}

// outsideFuncLit follows the calls that run when the caller runs: every
// call but those inside a function literal.
func outsideFuncLit(e CallEdge) bool { return !e.InFuncLit }

// shortChain renders a chain with shortFuncID.
func shortChain(chain []FuncID) []string {
	short := make([]string, len(chain))
	for i, c := range chain {
		short[i] = shortFuncID(c)
	}
	return short
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
