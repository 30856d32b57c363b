package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Lockorder enforces one mutex discipline: every mutex is a leaf lock.
// A lock site is any x.Lock() or x.RLock() statement whose callee is
// (*sync.Mutex).Lock, (*sync.RWMutex).Lock or (*sync.RWMutex).RLock,
// whatever x is: a field, a field of a field, a loop variable or an
// embedded mutex. Each site must be released in the statement list that
// took it, either by "defer x.Unlock()" (or a "defer func() { ... }()"
// wrapper that unlocks) as the next statement or by a later x.Unlock()
// in the same list, RUnlock for RLock. The statements between are the
// critical section, and the rule reports:
//
//   - a lock site with no such release;
//   - a return inside the section, unless the release was deferred: the
//     lock leaks on that path;
//   - a call inside the section whose callee reaches a lock acquisition
//     down the static call graph, with the shortest chain as the trace.
//     A deferred call runs at return: after an explicit release, so it
//     does not count, but before a deferred one (LIFO), so it does. Its
//     arguments are evaluated at the defer and always count.
//
// The last covers self-deadlock (the callee re-locks the held mutex),
// ABBA (two paths each take a second lock under a first) and recursive
// read locks: sync.RWMutex's doc says a blocked Lock call excludes new
// readers, so an RLock taken under a held RLock can deadlock against a
// writer that arrives in between. The graph under-approximates: calls
// through interfaces and function values are not followed, and neither
// are calls inside function literals, which may run after the section
// ends. The tree's mutex holders are history.Log, obs.Registry,
// obs.Histogram and vfs.MemFS.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "every mutex is a leaf lock: released in the block that took it, with no return leaking it and no call under it reaching another lock",
	Run:  runLockorder,
}

// lockFuncs are the acquisitions: the callees of a lock site, and what
// no call inside a critical section may reach.
var lockFuncs = map[FuncID]string{
	"(*sync.Mutex).Lock":    "Unlock",
	"(*sync.RWMutex).Lock":  "Unlock",
	"(*sync.RWMutex).RLock": "RUnlock",
}

func runLockorder(pass *Pass) {
	reach := pass.Graph.Reach(func(n *FuncNode) bool { _, ok := lockFuncs[n.ID]; return ok },
		outsideFuncLit, func(*FuncNode) bool { return true })
	for _, id := range pass.Graph.SortedIDs() {
		node := pass.Graph.Funcs[id]
		if node.Decl == nil {
			continue
		}
		callees := map[*ast.CallExpr]FuncID{}
		for _, e := range node.Calls {
			callees[e.Call] = e.Callee
		}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			}
			for i, s := range list {
				checkLockSite(pass, id, list[i+1:], s, callees, reach)
			}
			return true
		})
	}
}

// checkLockSite checks one statement of a list, given the statements
// after it, if it is a lock site.
func checkLockSite(pass *Pass, id FuncID, rest []ast.Stmt, s ast.Stmt, callees map[*ast.CallExpr]FuncID, reach map[FuncID]int) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return
	}
	unlock, ok := lockFuncs[callees[call]]
	if !ok {
		return
	}
	x := types.ExprString(ast.Unparen(call.Fun).(*ast.SelectorExpr).X) // "c.r.mu", "h.mu", "s" for an embedded mutex
	releases := func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == unlock && types.ExprString(sel.X) == x
	}

	// The section runs to the end of the list under a deferred release,
	// else to the first later statement that releases.
	section, deferred, released := rest, false, false
	if len(rest) > 0 {
		if d, ok := rest[0].(*ast.DeferStmt); ok && anyNode(d.Call, releases) {
			section, deferred, released = rest[1:], true, true
		}
	}
	for j := 0; j < len(rest) && !released; j++ {
		if es, ok := rest[j].(*ast.ExprStmt); ok && releases(es.X) {
			section, released = rest[:j], true
		}
	}
	if !released {
		pass.Report(call.Pos(), nil, "%s is not released in the block that locks it; unlock it there, or defer the unlock on the next line", x)
		return
	}

	var later *ast.CallExpr // a deferred call that runs after an explicit release
	for _, t := range section {
		ast.Inspect(t, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				if !deferred {
					pass.Report(n.Pos(), nil, "return while holding %s with no deferred unlock; the lock leaks on this path", x)
				}
			case *ast.DeferStmt:
				if !deferred {
					later = n.Call
				}
			case *ast.CallExpr:
				if _, ok := reach[callees[n]]; ok && n != later {
					chain, _ := pass.Graph.Chain(reach, callees[n], outsideFuncLit)
					trace := shortChain(append([]FuncID{id}, chain...))
					pass.Report(n.Pos(), trace, "%s() takes a lock while %s is held: %s; every mutex is a leaf lock, so release %s before this call",
						types.ExprString(n.Fun), x, strings.Join(trace, " → "), x)
				}
			}
			return true
		})
	}
}

// anyNode reports whether some node under root, root included,
// satisfies match.
func anyNode(root ast.Node, match func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		found = found || match(n)
		return !found
	})
	return found
}
