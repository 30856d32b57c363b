package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// loadMultimod loads the synthetic three-package module under
// testdata/multimod through its own go.mod, the way the driver loads
// the real repo.
func loadMultimod(t *testing.T) []*Package {
	t.Helper()
	root := filepath.Join("testdata", "multimod")
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("creating loader: %v", err)
	}
	var pkgs []*Package
	for _, dir := range []string{"app", "sim", "util"} {
		pkg, err := loader.Load(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// edgeTo returns the first edge from the node to callee, or nil.
func edgeTo(node *FuncNode, callee FuncID) *CallEdge {
	for i := range node.Calls {
		if node.Calls[i].Callee == callee {
			return &node.Calls[i]
		}
	}
	return nil
}

// TestCallGraphMultiPackage pins the graph's resolution across package
// boundaries of one module: plain cross-package calls, method calls on
// concrete receivers, calls inside function literals, and external
// stdlib leaves.
func TestCallGraphMultiPackage(t *testing.T) {
	g := BuildCallGraph(loadMultimod(t))

	const (
		run   = FuncID("example.com/mm/app.Run")
		tick  = FuncID("(*example.com/mm/app.Runner).Tick")
		stamp = FuncID("example.com/mm/util.Stamp")
		now   = FuncID("time.Now")
	)

	for _, id := range []FuncID{run, tick, stamp} {
		node := g.Funcs[id]
		if node == nil {
			t.Fatalf("missing internal node %s; have %v", id, g.SortedIDs())
		}
		if node.Decl == nil || node.Pkg == nil {
			t.Errorf("node %s should be internal (have Decl and Pkg)", id)
		}
	}

	// Run calls the method statically (outside any literal) and the
	// cross-package function from inside a closure.
	if e := edgeTo(g.Funcs[run], tick); e == nil {
		t.Errorf("no edge %s -> %s", run, tick)
	} else if e.InFuncLit {
		t.Errorf("edge %s -> %s wrongly marked InFuncLit", run, tick)
	}
	if e := edgeTo(g.Funcs[run], stamp); e == nil {
		t.Errorf("no edge %s -> %s", run, stamp)
	} else if !e.InFuncLit {
		t.Errorf("edge %s -> %s should be marked InFuncLit", run, stamp)
	}

	// Tick's cross-package call resolves through the import.
	if e := edgeTo(g.Funcs[tick], stamp); e == nil {
		t.Errorf("no edge %s -> %s", tick, stamp)
	} else if e.InFuncLit {
		t.Errorf("edge %s -> %s wrongly marked InFuncLit", tick, stamp)
	}

	// util.Stamp's stdlib callee appears as a body-less external leaf.
	if e := edgeTo(g.Funcs[stamp], now); e == nil {
		t.Errorf("no edge %s -> %s", stamp, now)
	}
	ext := g.Funcs[now]
	if ext == nil {
		t.Fatalf("missing external node %s", now)
	}
	if ext.Decl != nil || ext.Pkg != nil || len(ext.Calls) != 0 {
		t.Errorf("external node %s should be a bare leaf", now)
	}
}

// TestDettaintAcrossPackages runs the taint analyzer over the synthetic
// module and pins every finding's place and chain. util.Stamp's direct
// time.Now call is flagged in util, and its taint surfaces in app two
// calls down. Package sim sanctions the shared rand source: sim.Draw is
// not flagged, nor is drawOnly, which reaches the source only through
// it, and no chain runs through it, so both is flagged at roll().
func TestDettaintAcrossPackages(t *testing.T) {
	var got []string
	for _, d := range Run(loadMultimod(t), []*Analyzer{Dettaint}) {
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, strings.Join(d.Trace, " → ")))
	}
	want := []string{
		"app.go:13 (*app.Runner).Tick → util.Stamp → time.Now",
		"app.go:21 app.Run → util.Stamp → time.Now",
		"dice.go:11 app.roll → rand.Intn",
		"dice.go:25 app.both → app.roll → rand.Intn",
		"dice.go:29 app.top → app.both → app.roll → rand.Intn",
		"util.go:10 util.Stamp → time.Now",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dettaint findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
