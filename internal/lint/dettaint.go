package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Dettaint propagates determinism taint across the static call graph.
// Every timed behavior (heartbeats, timeouts, task durations) must run on
// the sim engine's virtual clock, and every random draw must come from a
// seeded sim.Rand, or identical seeds stop producing identical golden
// traces. Three sources taint a function:
//
//   - the wall clock: time.Now, Since, Sleep, After, ... (wallclockFuncs).
//     Duration arithmetic and constants stay legal: the sim engine's
//     virtual instants are themselves durations.
//   - math/rand's package-level source: any call order change anywhere in
//     the process perturbs every later draw. Constructors of seeded
//     sources stay legal, and rand.New is checked at each call for an
//     inline rand.NewSource(seed), since any other argument hides where
//     the seed comes from.
//   - a map-order return: a function that returns from inside a range
//     over a map, with the returned value mentioning the iteration
//     variables, picks an arbitrary element. It is reported at the return.
//
// A direct call of a source is reported at every call site. A function
// that reaches one through helpers is reported once, at its first call
// down the shortest chain, with the chain in the diagnostic
// (a → b → time.Now).
//
// Exemptions: binaries under cmd/ may read the wall clock (a CLI may
// measure real elapsed time for its user), and internal/sim is the
// sanctioned randomness wrapper. Taint of those kinds neither propagates
// out of such a package nor is reported inside it, and no chain of that
// kind runs through it.
var Dettaint = &Analyzer{
	Name: "dettaint",
	Doc:  "flag calls and call chains that reach the wall clock, global rand, or map-order-dependent helpers",
	Run:  runDettaint,
}

// Taint kinds, in reporting order.
const (
	taintWallclock  = "wallclock"
	taintGlobalrand = "globalrand"
	taintMaporder   = "maporder"
)

var taintKinds = []string{taintWallclock, taintGlobalrand, taintMaporder}

// wallclockFuncs are the time functions that read or wait on the real
// clock.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// randConstructors are the math/rand functions that build seeded
// sources — exactly what deterministic code should call. rand.New gets
// its own per-call check of its argument.
var randConstructors = map[string]bool{
	"NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true, "New": true,
}

func isRandPkg(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

func runDettaint(pass *Pass) {
	g := pass.Graph
	ids := g.SortedIDs()

	// Classify sources. External leaves give wallclock/globalrand taint;
	// loaded functions that return map-order-dependent values are
	// maporder sources, remembered with the offending return position.
	sources := map[string]map[FuncID]bool{taintWallclock: {}, taintGlobalrand: {}, taintMaporder: {}}
	maporderPos := map[FuncID]token.Pos{}
	for _, id := range ids {
		node := g.Funcs[id]
		if node.Decl == nil {
			pkgPath, recv, name := funcParts(node.Func)
			if recv != "" {
				continue // methods (e.g. (*rand.Rand).Intn on a seeded instance) are fine
			}
			if pkgPath == "time" && wallclockFuncs[name] {
				sources[taintWallclock][id] = true
			}
			if isRandPkg(pkgPath) && !randConstructors[name] {
				sources[taintGlobalrand][id] = true
			}
			continue
		}
		if pos := mapOrderReturnPos(node.Pkg, node.Decl); pos != token.NoPos {
			sources[taintMaporder][id] = true
			maporderPos[id] = pos
		}
	}

	// Every call carries taint, closures' included, into every caller
	// outside a package that sanctions the kind.
	every := func(CallEdge) bool { return true }
	dist := map[string]map[FuncID]int{}
	for _, kind := range taintKinds {
		dist[kind] = g.Reach(func(n *FuncNode) bool { return sources[kind][n.ID] }, every,
			func(n *FuncNode) bool { return !taintBarrier(n, kind) })
	}

	for _, id := range ids {
		node := g.Funcs[id]
		if node.Decl == nil {
			continue
		}
		if !taintBarrier(node, taintGlobalrand) {
			for _, e := range node.Calls {
				pkgPath, recv, name := funcParts(e.fn)
				if isRandPkg(pkgPath) && recv == "" && name == "New" &&
					!(len(e.Call.Args) == 1 && isSeededSource(node.Pkg, e.Call.Args[0])) {
					pass.Report(e.Pos(), nil, "rand.New without an inline rand.NewSource(seed) hides the seed; use sim.NewRand or rand.New(rand.NewSource(seed))")
				}
			}
		}
		for _, kind := range taintKinds {
			d, tainted := dist[kind][id]
			switch {
			case !tainted:
			case d == 0:
				// A maporder source reports itself; wallclock/globalrand
				// sources are external and never reach this loop.
				pass.Report(maporderPos[id], []string{shortFuncID(id)},
					"returned value is chosen by map iteration order; collect and sort keys before choosing")
			case d == 1:
				for _, e := range node.Calls {
					if sources[kind][e.Callee] {
						reportTaint(pass, kind, e, []FuncID{id, e.Callee})
					}
				}
			default:
				chain, edge := g.Chain(dist[kind], id, every)
				reportTaint(pass, kind, edge, chain)
			}
		}
	}
}

// reportTaint reports a tainted call at edge, naming the chain from the
// caller down to the source.
func reportTaint(pass *Pass, kind string, edge CallEdge, chain []FuncID) {
	short := shortChain(chain)
	route := strings.Join(short, " → ")
	switch kind {
	case taintWallclock:
		pass.Report(edge.Pos(), short,
			"call chain reaches the wall clock: %s; thread the sim engine's virtual clock instead", route)
	case taintGlobalrand:
		pass.Report(edge.Pos(), short,
			"call chain reaches the shared math/rand source: %s; draw from a seeded sim.Rand", route)
	case taintMaporder:
		pass.Report(edge.Pos(), short,
			"call chain reaches a map-order-dependent value: %s; make the helper deterministic first", route)
	}
}

// taintBarrier reports whether node's package sanctions taint of the
// given kind: the walk for that kind does not enter it, so taint is
// neither reported there nor inherited through it by callers.
func taintBarrier(node *FuncNode, kind string) bool {
	if node.Pkg == nil {
		return false
	}
	switch kind {
	case taintGlobalrand:
		return hasPathSegment(node.Pkg.ImportPath, "sim")
	case taintWallclock:
		return isCmdPackage(node.Pkg)
	}
	return false
}

// isSeededSource reports whether the expression is a direct
// rand.NewSource(...) / rand.NewPCG(...) call.
func isSeededSource(pkg *Package, expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	path, fn, ok := pkgFuncCall(pkg, call)
	return ok && isRandPkg(path) && (fn == "NewSource" || fn == "NewPCG")
}

// mapOrderReturnPos scans a function body for a return statement inside
// a range-over-map loop whose results mention the loop variables — the
// "pick an arbitrary element" shape. Returns the position of the first
// such return, or NoPos. Function literals are skipped (their returns
// leave the closure, not the function).
func mapOrderReturnPos(pkg *Package, fd *ast.FuncDecl) token.Pos {
	found := token.NoPos
	var walk func(n ast.Node, loopVars map[string]bool)
	walk = func(n ast.Node, loopVars map[string]bool) {
		ast.Inspect(n, func(node ast.Node) bool {
			if found != token.NoPos {
				return false
			}
			switch s := node.(type) {
			case *ast.FuncLit:
				return false
			case *ast.RangeStmt:
				if _, isMap := pkg.Info.TypeOf(s.X).Underlying().(*types.Map); !isMap {
					return true
				}
				vars := map[string]bool{}
				for k, v := range loopVars {
					vars[k] = v
				}
				for _, e := range []ast.Expr{s.Key, s.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						vars[id.Name] = true
					}
				}
				walk(s.Body, vars)
				return false
			case *ast.ReturnStmt:
				if len(loopVars) == 0 {
					return true
				}
				for _, res := range s.Results {
					for name := range loopVars {
						if mentionsIdent(res, name) {
							found = s.Pos()
							return false
						}
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, map[string]bool{})
	return found
}

// shortFuncID compresses a FuncID's package path to its base for
// readable traces: "(*repro/internal/hdfs.NameNode).journal" becomes
// "(*hdfs.NameNode).journal", "repro/internal/vfs.WriteFile" becomes
// "vfs.WriteFile"; stdlib names like "time.Now" are already short.
func shortFuncID(id FuncID) string {
	s := string(id)
	slash := strings.LastIndex(s, "/")
	if slash < 0 {
		return s
	}
	prefix := ""
	if strings.HasPrefix(s, "(*") {
		prefix = "(*"
	} else if strings.HasPrefix(s, "(") {
		prefix = "("
	}
	return prefix + s[slash+1:]
}

// funcParts returns a function's package path ("" for the universe's
// error.Error), receiver ("" for package functions, "T" or "*T" for
// methods) and name.
func funcParts(fn *types.Func) (pkgPath, recv, name string) {
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		recv = types.TypeString(r.Type(), func(*types.Package) string { return "" })
	}
	return pkgPath, recv, fn.Name()
}
