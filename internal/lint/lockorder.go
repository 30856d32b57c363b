package lint

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Lockorder checks the mutex discipline this codebase uses — a struct
// guards its state with a sync.Mutex/RWMutex field and locks it through
// recv.field.Lock() (the NameNode, JobTracker, Master, RegionServer
// shape). It replays each such method's statements in source order
// against the set of fields it holds, following static calls, and
// reports three shapes:
//
//   - Self-deadlock: while holding a field, the method calls a method on
//     the same receiver that re-acquires the field, directly or any
//     number of same-receiver calls down. Chains follow same-receiver
//     calls only, so the held and re-acquired mutex are provably the same
//     instance. A callee that write-acquires the field anywhere deadlocks
//     even under RLock; a read acquisition deadlocks only under a held
//     write lock, since read locks nest.
//
//   - Leaked lock: a return while some field is held with no deferred
//     release — the classic leaked lock on an early error return.
//
//   - Lock-order (ABBA) cycles: one code path acquires lock B while
//     holding lock A — directly, or anywhere down a static call chain —
//     while another path acquires A while holding B. Locks here are
//     type-level (pkg.Type.field): two instances of the same pair can
//     interleave to deadlock, so a type-level cycle is reported as
//     *potential* and each edge of the cycle is flagged at its witness
//     acquisition site with the full call chain.
//
// The analysis is conservative where the graph is: calls through
// interfaces and function values are not followed, and lock operations
// inside nested function literals are ignored (the closure does not run
// under the caller's held set) except for "defer func() { unlock }"
// wrappers.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "flag call chains that re-acquire a held mutex, returns that leak one, and lock-order cycles (ABBA)",
	Run:  runLockorder,
}

// A lockID names a mutex at type level: "pkg/path.Type.field".
type lockID string

// sortedMapKeys returns a map's keys in ascending order, so the
// analysis never leaks Go's randomized map iteration order into its own
// diagnostics — the exact property it polices.
func sortedMapKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// shortLockID compresses "repro/internal/hdfs.NameNode.mu" to
// "hdfs.NameNode.mu" for diagnostics.
func shortLockID(l lockID) string {
	s := string(l)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		return s[i+1:]
	}
	return s
}

// lockEvent is one ordered occurrence inside a method body.
type lockEvent struct {
	pos  token.Pos
	kind string // "lock", "rlock", "unlock", "runlock", "defer-unlock", "defer-runlock", "return", "call", "self-call"
	// field is the mutex field of a lock operation.
	field string
	// call is the graph edge of a call; "self-call" marks a call of a
	// method of the same type on the same receiver.
	call *CallEdge
}

// methodLocks is the lock summary of one guarded-type method.
type methodLocks struct {
	typeKey string // "pkg/path.Type"
	recv    string
	events  []lockEvent // source order
}

func (m *methodLocks) lock(field string) lockID {
	return lockID(m.typeKey + "." + printableField(field))
}

func runLockorder(pass *Pass) {
	summaries := lockSummaries(pass)
	own := ownAcquisitions(summaries)
	reach := reachableAcquisitions(pass.Graph, summaries)

	// Replay every summarized method's held set in deterministic order,
	// reporting self-deadlocks and leaks and recording ordering edges.
	// First witness per (from, to) pair wins.
	edges := map[[2]lockID]*orderEdge{}
	addEdge := func(from, to lockID, pos token.Pos, chain []FuncID) {
		key := [2]lockID{from, to}
		if edges[key] == nil {
			edges[key] = &orderEdge{from: from, to: to, pos: pos, chain: chain}
		}
	}
	for _, id := range sortedMapKeys(summaries) {
		m := summaries[id]
		held := map[string]string{} // own field -> "lock" or "rlock"
		deferred := map[string]bool{}
		for _, e := range m.events {
			switch e.kind {
			case "lock", "rlock":
				for _, f := range sortedMapKeys(held) {
					if f != e.field {
						addEdge(m.lock(f), m.lock(e.field), e.pos, []FuncID{id})
					}
				}
				held[e.field] = e.kind
				delete(deferred, e.field)
			case "unlock", "runlock":
				delete(held, e.field)
			case "defer-unlock", "defer-runlock":
				if _, ok := held[e.field]; ok {
					deferred[e.field] = true
				}
			case "return":
				var leaked []string
				for _, f := range sortedMapKeys(held) {
					if !deferred[f] {
						leaked = append(leaked, m.recv+"."+printableField(f))
					}
				}
				if len(leaked) > 0 {
					pass.Report(e.pos, nil, "return while holding %s with no deferred unlock; the lock leaks on this path",
						strings.Join(leaked, ", "))
				}
			case "call", "self-call":
				if len(held) == 0 {
					continue
				}
				acqs := reach(e.call.Callee)
				for _, f := range sortedMapKeys(held) {
					if e.kind == "self-call" {
						if chain := own(e.call.Callee)[f].deadlocks(held[f]); chain != nil {
							reportSelfDeadlock(pass, m, e, f, append([]FuncID{id}, chain...))
						}
					}
					for _, l := range sortedMapKeys(acqs) {
						if l != m.lock(f) { // re-acquiring the same lock is the self-deadlock check's job
							addEdge(m.lock(f), l, e.pos, append([]FuncID{id}, acqs[l]...))
						}
					}
				}
			}
		}
	}

	// Cycle detection: any edge whose endpoints are in one strongly
	// connected component is part of an ordering cycle.
	scc := lockSCCs(edges)
	for _, k := range sortedEdgeKeys(edges) {
		e := edges[k]
		if scc[e.from] == 0 || scc[e.from] != scc[e.to] {
			continue
		}
		trace := make([]string, len(e.chain))
		for i, c := range e.chain {
			trace[i] = shortFuncID(c)
		}
		msg := ""
		if rev := edges[[2]lockID{e.to, e.from}]; rev != nil {
			p := pass.Fset.Position(rev.pos)
			msg = "the opposite order is taken at " + filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
		} else {
			msg = "part of a larger ordering cycle"
		}
		pass.Report(e.pos, trace,
			"acquires %s while holding %s (via %s); %s — potential ABBA deadlock, acquire in one consistent order",
			shortLockID(e.to), shortLockID(e.from), strings.Join(trace, " → "), msg)
	}
}

// lockSummaries summarizes every method of every guarded type: a
// method with a named receiver whose type has mutex fields.
func lockSummaries(pass *Pass) map[FuncID]*methodLocks {
	summaries := map[FuncID]*methodLocks{}
	for _, pkg := range pass.Pkgs {
		fields := mutexFieldsOf(pkg)
		if len(fields) == 0 {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
					continue
				}
				tname, recv := recvTypeName(fd.Recv.List[0].Type), fd.Recv.List[0].Names[0].Name
				node := pass.Graph.Funcs[declID(pkg, fd)]
				if fields[tname] == nil || recv == "_" || node == nil || node.Decl != fd {
					continue
				}
				summaries[node.ID] = &methodLocks{typeKey: pkg.ImportPath + "." + tname, recv: recv,
					events: collectLockEvents(node, recv, fields[tname])}
			}
		}
	}
	// A call on the receiver itself of another method of its type is a
	// self-call: it runs under the same instance's locks.
	for _, m := range summaries {
		for i, e := range m.events {
			if e.kind != "call" {
				continue
			}
			callee := summaries[e.call.Callee]
			if callee != nil && callee.typeKey == m.typeKey && onRecv(e.call.Call, m.recv) {
				m.events[i].kind = "self-call"
			}
		}
	}
	return summaries
}

// onRecv reports whether the call is recv.method(...).
func onRecv(call *ast.CallExpr, recv string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == recv
}

// ownAcq is how a method reaches an acquisition of one of its receiver's
// own mutex fields through self-calls: the first chain to a write
// acquisition and the first to a read one, each from the method down to
// the acquirer.
type ownAcq struct{ write, read []FuncID }

// deadlocks returns the chain that deadlocks a caller holding the field
// in heldKind mode, or nil: any write acquisition does, and a read
// acquisition does under a held write lock. Read locks nest.
func (a ownAcq) deadlocks(heldKind string) []FuncID {
	if a.write != nil || heldKind == "rlock" {
		return a.write
	}
	return a.read
}

// ownAcquisitions returns a memoized function giving, per method, the
// own fields it acquires through self-calls.
func ownAcquisitions(summaries map[FuncID]*methodLocks) func(FuncID) map[string]ownAcq {
	memo := map[FuncID]map[string]ownAcq{}
	inProgress := map[FuncID]bool{}
	var own func(id FuncID) map[string]ownAcq
	own = func(id FuncID) map[string]ownAcq {
		if r, ok := memo[id]; ok {
			return r
		}
		m := summaries[id]
		if m == nil || inProgress[id] {
			return nil // recursion: cut the cycle conservatively
		}
		inProgress[id] = true
		out := map[string]ownAcq{}
		note := func(field string, write bool, chain []FuncID) {
			a := out[field]
			if write && a.write == nil {
				a.write = chain
			} else if !write && a.read == nil {
				a.read = chain
			}
			out[field] = a
		}
		for _, e := range m.events {
			switch e.kind {
			case "lock", "rlock":
				note(e.field, e.kind == "lock", []FuncID{id})
			case "self-call":
				sub := own(e.call.Callee)
				for _, f := range sortedMapKeys(sub) {
					a := sub[f]
					if a.write != nil {
						note(f, true, append([]FuncID{id}, a.write...))
					}
					if a.read != nil {
						note(f, false, append([]FuncID{id}, a.read...))
					}
				}
			}
		}
		delete(inProgress, id)
		memo[id] = out
		return out
	}
	return own
}

func reportSelfDeadlock(pass *Pass, m *methodLocks, e lockEvent, field string, chain []FuncID) {
	trace := make([]string, len(chain))
	for i, c := range chain {
		trace[i] = shortFuncID(c)
	}
	method := e.call.Call.Fun.(*ast.SelectorExpr).Sel.Name
	pass.Report(e.pos, trace, "%s.%s() re-acquires %s.%s, which is still held here: %s; self-deadlock",
		m.recv, method, m.recv, printableField(field), strings.Join(trace, " → "))
}

// reachableAcquisitions returns a memoized function giving the type-level
// locks a function acquires through static calls on any receiver, each
// with the shortest-found chain from the function down to the acquirer.
func reachableAcquisitions(g *CallGraph, summaries map[FuncID]*methodLocks) func(FuncID) map[lockID][]FuncID {
	memo := map[FuncID]map[lockID][]FuncID{}
	inProgress := map[FuncID]bool{}
	var reach func(id FuncID) map[lockID][]FuncID
	reach = func(id FuncID) map[lockID][]FuncID {
		if r, ok := memo[id]; ok {
			return r
		}
		node := g.Funcs[id]
		if node == nil || node.Decl == nil || inProgress[id] {
			return nil
		}
		inProgress[id] = true
		out := map[lockID][]FuncID{}
		if m := summaries[id]; m != nil {
			for _, e := range m.events {
				if l := m.lock(e.field); (e.kind == "lock" || e.kind == "rlock") && out[l] == nil {
					out[l] = []FuncID{id}
				}
			}
		}
		for _, e := range node.Calls {
			if e.InFuncLit {
				continue
			}
			sub := reach(e.Callee)
			for _, l := range sortedMapKeys(sub) {
				if out[l] == nil {
					out[l] = append([]FuncID{id}, sub[l]...)
				}
			}
		}
		delete(inProgress, id)
		memo[id] = out
		return out
	}
	return reach
}

// orderEdge is one observed ordering: some path acquires To while
// holding From.
type orderEdge struct {
	from, to lockID
	pos      token.Pos // witness acquisition (or call) site
	chain    []FuncID  // call chain from the holder to the acquirer
}

// sortedEdgeKeys returns the ordering-edge keys sorted by (from, to),
// the deterministic walk order for reporting and SCC numbering.
func sortedEdgeKeys(edges map[[2]lockID]*orderEdge) [][2]lockID {
	keys := make([][2]lockID, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// lockSCCs assigns each lock a strongly-connected-component number,
// leaving locks in trivial components (no cycle through them) at 0.
func lockSCCs(edges map[[2]lockID]*orderEdge) map[lockID]int {
	adj := map[lockID][]lockID{}
	nodes := map[lockID]bool{}
	for _, k := range sortedEdgeKeys(edges) {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	sorted := sortedMapKeys(nodes)

	// Tarjan's algorithm, recursive (lock graphs are tiny).
	index := map[lockID]int{}
	low := map[lockID]int{}
	onStack := map[lockID]bool{}
	var stack []lockID
	comp := map[lockID]int{}
	next, compNum := 1, 0
	var strong func(v lockID)
	strong = func(v lockID) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []lockID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				compNum++
				for _, m := range members {
					comp[m] = compNum
				}
			}
		}
	}
	for _, n := range sorted {
		if index[n] == 0 {
			strong(n)
		}
	}
	return comp
}

const embeddedMutex = "(embedded)"

// mutexFieldsOf scans a package for struct types guarding state with
// sync.Mutex/RWMutex fields, returning type name -> mutex field names
// (embeddedMutex for embedded ones).
func mutexFieldsOf(pkg *Package) map[string]map[string]bool {
	mutexFields := map[string]map[string]bool{}
	inspectAll(pkg, func(node ast.Node) bool {
		ts, ok := node.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			if !isSyncMutexType(pkg, f.Type) {
				continue
			}
			if mutexFields[ts.Name.Name] == nil {
				mutexFields[ts.Name.Name] = map[string]bool{}
			}
			if len(f.Names) == 0 {
				mutexFields[ts.Name.Name][embeddedMutex] = true
			}
			for _, n := range f.Names {
				mutexFields[ts.Name.Name][n.Name] = true
			}
		}
		return true
	})
	return mutexFields
}

func printableField(field string) string {
	if field == embeddedMutex {
		return "Mutex"
	}
	return field
}

// isSyncMutexType reports whether a field type is sync.Mutex/RWMutex.
func isSyncMutexType(pkg *Package, expr ast.Expr) bool {
	t := types.TypeString(pkg.Info.TypeOf(expr), nil)
	return t == "sync.Mutex" || t == "sync.RWMutex"
}

// recvTypeName returns the named type of a method receiver ("T" for
// both T and *T, including generic receivers).
func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// collectLockEvents walks a method body in source order, recording lock
// operations on recv's mutex fields, returns, and the calls the graph
// resolved. Nested function literals are skipped (they run later, if at
// all) except as "defer func() { recv.mu.Unlock() }()" wrappers.
func collectLockEvents(node *FuncNode, recv string, fields map[string]bool) []lockEvent {
	edges := map[*ast.CallExpr]*CallEdge{}
	for i, e := range node.Calls {
		edges[e.Call] = &node.Calls[i]
	}
	var events []lockEvent
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if field, op, ok := lockOp(s.Call, recv, fields); ok {
				if op == "unlock" || op == "runlock" {
					events = append(events, lockEvent{pos: s.Pos(), kind: "defer-" + op, field: field})
				}
				return false
			}
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(inner ast.Node) bool {
					if call, ok := inner.(*ast.CallExpr); ok {
						if field, op, ok := lockOp(call, recv, fields); ok && strings.HasSuffix(op, "unlock") {
							events = append(events, lockEvent{pos: s.Pos(), kind: "defer-" + op, field: field})
						}
					}
					return true
				})
				return false
			}
		case *ast.ReturnStmt:
			events = append(events, lockEvent{pos: s.Pos(), kind: "return"})
		case *ast.CallExpr:
			if field, op, ok := lockOp(s, recv, fields); ok {
				events = append(events, lockEvent{pos: s.Pos(), kind: op, field: field})
				return false
			}
			if e := edges[s]; e != nil {
				events = append(events, lockEvent{pos: s.Pos(), kind: "call", call: e})
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// lockOp matches recv.field.Lock()-shaped calls (and recv.Lock() for an
// embedded mutex), returning the field and the operation.
func lockOp(call *ast.CallExpr, recv string, fields map[string]bool) (field, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock":
		op = "lock"
	case "RLock":
		op = "rlock"
	case "Unlock":
		op = "unlock"
	case "RUnlock":
		op = "runlock"
	default:
		return "", "", false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		// recv.Lock(): embedded mutex.
		if x.Name == recv && fields[embeddedMutex] {
			return embeddedMutex, op, true
		}
	case *ast.SelectorExpr:
		// recv.field.Lock().
		if base, isIdent := x.X.(*ast.Ident); isIdent && base.Name == recv && fields[x.Sel.Name] {
			return x.Sel.Name, op, true
		}
	}
	return "", "", false
}
