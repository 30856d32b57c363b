package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Commiterr is an unchecked-error analyzer scoped to durability-critical
// call paths. The repo's two hardest guarantees — zero lost acked writes
// (kvstore WAL replay) and byte-stable audit/history logs — hold only if
// every error on a commit path is observed: a dropped error from a WAL
// append, a store-file flush, a history persist or an edit-log write
// silently acks data that was never made durable.
//
// A callee is commit-critical if it is one of the durability sinks
// (kvstore WAL append/truncate, iofmt sequence-writer flush/close, the
// vfs whole-file writer and record appender every journal and history
// persist path funnels through) or if it returns an error and transitively calls one through
// static calls. Dropping the error of a commit-critical call — calling
// it as a bare statement, blanking the error with _, or deferring it —
// is reported with the chain that makes it critical
// (journal → vfs.AppendFile).
//
// One idiom is exempt: a drop inside an if-block whose condition tests
// an error against nil (the cleanup-after-failure shape, where the
// original error is already being returned and a secondary close error
// has nowhere better to go).
var Commiterr = &Analyzer{
	Name: "commiterr",
	Doc:  "forbid dropping errors from durability-critical calls (WAL append, flush, persist paths)",
	Run:  runCommiterr,
}

// commitSinks are the durability primitives, matched by package-path
// suffix, receiver and name so the list survives module renames and
// works for fixture packages importing the real ones.
var commitSinks = []struct {
	pathSuffix string // import path or suffix starting at a path boundary
	recv       string // "" for package functions
	name       string
}{
	{"internal/vfs", "", "WriteFile"},
	{"internal/vfs", "", "AppendFile"},
	{"internal/kvstore", "*Table", "appendWAL"},
	{"internal/kvstore", "*Table", "truncateWAL"},
	{"internal/iofmt", "*SeqWriter", "flushBlock"},
	{"internal/iofmt", "*SeqWriter", "Close"},
}

func isCommitSink(fn *types.Func) bool {
	pkgPath, recv, name := funcParts(fn)
	for _, s := range commitSinks {
		if s.recv != recv || s.name != name {
			continue
		}
		if pkgPath == s.pathSuffix || strings.HasSuffix(pkgPath, "/"+s.pathSuffix) {
			return true
		}
	}
	return false
}

func runCommiterr(pass *Pass) {
	g := pass.Graph

	// critical maps each commit-critical function to the call chain that
	// reaches a sink (the function itself first). Non-sink functions are
	// critical only if they return an error: a function that swallows
	// the sink's error internally is reported at the swallow site, not
	// at its callers (there is nothing the caller could check).
	memo := map[FuncID][]FuncID{}
	inProgress := map[FuncID]bool{}
	var critical func(id FuncID) []FuncID
	critical = func(id FuncID) []FuncID {
		if c, ok := memo[id]; ok {
			return c
		}
		// id is always a callee, so its node exists and has a Func.
		node := g.Funcs[id]
		if isCommitSink(node.Func) {
			memo[id] = []FuncID{id}
			return memo[id]
		}
		if node.Decl == nil || inProgress[id] {
			return nil
		}
		if !returnsError(node.Func) {
			memo[id] = nil
			return nil
		}
		inProgress[id] = true
		var chain []FuncID
		for _, e := range node.Calls {
			if e.InFuncLit {
				continue
			}
			if sub := critical(e.Callee); sub != nil {
				chain = append([]FuncID{id}, sub...)
				break
			}
		}
		delete(inProgress, id)
		memo[id] = chain
		return chain
	}

	for _, id := range g.SortedIDs() {
		node := g.Funcs[id]
		if node == nil || node.Decl == nil {
			continue
		}
		reportDrops(pass, node, critical)
	}
}

// returnsError reports whether the function's last result is an error.
func returnsError(fn *types.Func) bool {
	res := fn.Type().(*types.Signature).Results()
	return res.Len() > 0 && isErrorType(res.At(res.Len()-1).Type())
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// reportDrops scans one function body for dropped errors of
// commit-critical calls.
func reportDrops(pass *Pass, node *FuncNode, critical func(FuncID) []FuncID) {
	pkg := node.Pkg

	report := func(call *ast.CallExpr, how string) {
		fn := resolveCallee(pkg, call)
		if fn == nil {
			return
		}
		chain := critical(FuncID(fn.FullName()))
		if chain == nil || !calleeReturnsError(pkg, call) {
			return
		}
		short := make([]string, len(chain))
		for i, c := range chain {
			short[i] = shortFuncID(c)
		}
		pass.Report(call.Pos(), short,
			"%s the error from %s, which commits durable state (%s); a silent failure here loses acked writes",
			how, short[0], strings.Join(short, " → "))
	}

	// Walk with an error-branch context flag: drops inside a block
	// guarded by `err != nil` are the cleanup-after-failure idiom.
	var walk func(n ast.Node, inErrBranch bool)
	walk = func(n ast.Node, inErrBranch bool) {
		ast.Inspect(n, func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.IfStmt:
				if s.Init != nil {
					walk(s.Init, inErrBranch)
				}
				errCond := condTestsError(pkg, s.Cond)
				walk(s.Body, inErrBranch || errCond)
				if s.Else != nil {
					walk(s.Else, inErrBranch)
				}
				return false
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok && !inErrBranch {
					report(call, "drops")
				}
				// Keep walking: the call's arguments may contain literals.
				return true
			case *ast.AssignStmt:
				if inErrBranch {
					return true
				}
				if len(s.Rhs) == 1 {
					if call, ok := s.Rhs[0].(*ast.CallExpr); ok && lastLHSBlank(s.Lhs) {
						report(call, "discards")
					}
				}
				return true
			case *ast.DeferStmt:
				if !inErrBranch {
					report(s.Call, "defers and drops")
				}
				return true
			case *ast.GoStmt:
				if !inErrBranch {
					report(s.Call, "spawns and drops")
				}
				return true
			}
			return true
		})
	}
	walk(node.Decl.Body, false)
}

// lastLHSBlank reports whether the error position (last assignee) of a
// call assignment is the blank identifier.
func lastLHSBlank(lhs []ast.Expr) bool {
	if len(lhs) == 0 {
		return false
	}
	id, ok := lhs[len(lhs)-1].(*ast.Ident)
	return ok && id.Name == "_"
}

// calleeReturnsError reports whether the call produces an error as its
// last result (single error or trailing error of a tuple).
func calleeReturnsError(pkg *Package, call *ast.CallExpr) bool {
	switch t := pkg.Info.TypeOf(call).(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

// condTestsError reports whether a condition compares an error value
// against nil (err != nil, err == nil with the drop in either branch is
// not distinguished — only != nil guards count, the failure-path shape).
func condTestsError(pkg *Package, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op.String() != "!=" {
			return true
		}
		var other ast.Expr
		if isNilIdent(be.X) {
			other = be.Y
		} else if isNilIdent(be.Y) {
			other = be.X
		} else {
			return true
		}
		found = isErrorType(pkg.Info.TypeOf(other))
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
