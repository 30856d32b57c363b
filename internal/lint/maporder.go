package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Maporder flags range loops over maps whose bodies have order-dependent
// effects: appending to a slice, writing formatted output, or spawning
// work. Go randomizes map iteration order per run, so any such loop is a
// golden-trace killer — the fix is to collect the keys, sort them, and
// range over the sorted slice. The collection step of that very fix
// (append keys, then sort) is recognized: an append whose slice is
// passed to a sort or slices call later in the same file is not flagged.
// Loops whose bodies only do commutative work (summing, counting,
// deleting, writing distinct keys into another map) are left alone.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid order-dependent effects (append/output/spawn) inside range-over-map loops without a subsequent sort",
	Run:  runMaporder,
}

// maporderWriteMethods are method names whose calls make loop-body order
// observable: stream/buffer writes, last-write-wins setters and event
// scheduling. Calls on any receiver count — the analyzer cannot prove
// the receiver is loop-local, and a write that happens per element in
// map order is suspect regardless.
var maporderWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Printf": true, "Print": true, "Println": true, "Set": true,
	"Schedule": true, "After": true, "Every": true,
	// Event-log appends (history.Log and friends): emission order is the
	// record, so it must never follow map order.
	"Append": true,
}

// maporderFmtFuncs are fmt functions that emit directly to a stream.
var maporderFmtFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMaporder(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(node ast.Node) bool {
				rs, ok := node.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := pkg.Info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					return true
				}
				effect, slice := orderDependentEffect(pkg, rs.Body)
				if effect == "" {
					return true
				}
				if slice != "" && sortedAfter(pkg, file, slice, rs.End()) {
					return true // collect-then-sort: the canonical deterministic pattern
				}
				pass.Report(rs.Pos(), nil, "range over map has order-dependent effect (%s); iterate over sorted keys", effect)
				return true
			})
		}
	}
}

// orderDependentEffect scans a range body for the first construct whose
// outcome depends on iteration order, returning a short description of
// it ("" if none) and, for appends, the name of the target slice.
// Appends to slices declared inside the body are skipped: a loop-local
// collection is rebuilt per element and never observes map order.
func orderDependentEffect(pkg *Package, body *ast.BlockStmt) (effect, slice string) {
	local := localNames(body)
	ast.Inspect(body, func(node ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := node.(type) {
		case *ast.GoStmt:
			effect = "spawns a goroutine per element"
		case *ast.SendStmt:
			effect = "sends on a channel per element"
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && pkg.Info.Uses[id] == types.Universe.Lookup("append") {
				// The builtin: slice order now mirrors map order.
				target, base := "", ""
				switch t := n.Args[0].(type) {
				case *ast.Ident:
					target, base = t.Name, t.Name
				case *ast.SelectorExpr:
					target = t.Sel.Name
					if x, ok := t.X.(*ast.Ident); ok {
						base = x.Name
					}
				}
				if local[base] {
					return true // loop-local slice: per-element, order-free
				}
				effect = "appends to a slice"
				slice = target
				return false
			}
			if path, fn, ok := pkgFuncCall(pkg, n); ok {
				if path == "fmt" && maporderFmtFuncs[fn] {
					effect = "writes fmt output"
				}
				return effect == ""
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && maporderWriteMethods[sel.Sel.Name] {
				effect = "calls ." + sel.Sel.Name + " per element"
			}
		}
		return effect == ""
	})
	return effect, slice
}

// sortedAfter reports whether a sorting call mentioning the named slice
// appears in the file after pos: any sort/slices package call, or a
// call to a local helper whose name contains "sort" (sortNodeIDs,
// sortStrings — this codebase's idiom). Matching by name within the
// file is a deliberate over-approximation: a same-named slice sorted in
// a different function suppresses the finding, which is the cheap side
// of the trade for never flagging the canonical fix.
func sortedAfter(pkg *Package, file *ast.File, slice string, pos token.Pos) bool {
	found := false
	ast.Inspect(file, func(node ast.Node) bool {
		if found {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if !isSortCall(pkg, call) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsIdent(arg, slice) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes stdlib sorting (sort.*, slices.Sort*) and local
// sort helpers by name.
func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	if path, _, ok := pkgFuncCall(pkg, call); ok {
		return path == "sort" || path == "slices"
	}
	name := ""
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// localNames returns the identifiers declared (:= or var) directly
// within the block, including in nested statements.
func localNames(body *ast.BlockStmt) map[string]bool {
	names := map[string]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						names[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				names[id.Name] = true
			}
		}
		return true
	})
	return names
}

// mentionsIdent reports whether the identifier appears anywhere in expr.
func mentionsIdent(expr ast.Expr, name string) bool {
	found := false
	ast.Inspect(expr, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
