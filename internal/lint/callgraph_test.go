package lint

import (
	"path/filepath"
	"testing"
)

// loadMultimod loads the synthetic two-package module under
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
	for _, dir := range []string{"app", "util"} {
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
		node := g.Node(id)
		if node == nil {
			t.Fatalf("missing internal node %s; have %v", id, g.SortedIDs())
		}
		if node.Decl == nil || node.Pkg == nil {
			t.Errorf("node %s should be internal (have Decl and Pkg)", id)
		}
	}

	// Run calls the method statically (outside any literal) and the
	// cross-package function from inside a closure.
	if e := edgeTo(g.Node(run), tick); e == nil {
		t.Errorf("no edge %s -> %s", run, tick)
	} else if e.InFuncLit {
		t.Errorf("edge %s -> %s wrongly marked InFuncLit", run, tick)
	}
	if e := edgeTo(g.Node(run), stamp); e == nil {
		t.Errorf("no edge %s -> %s", run, stamp)
	} else if !e.InFuncLit {
		t.Errorf("edge %s -> %s should be marked InFuncLit", run, stamp)
	}

	// Tick's cross-package call resolves through the import.
	if e := edgeTo(g.Node(tick), stamp); e == nil {
		t.Errorf("no edge %s -> %s", tick, stamp)
	} else if e.InFuncLit {
		t.Errorf("edge %s -> %s wrongly marked InFuncLit", tick, stamp)
	}

	// util.Stamp's stdlib callee appears as a body-less external leaf.
	if e := edgeTo(g.Node(stamp), now); e == nil {
		t.Errorf("no edge %s -> %s", stamp, now)
	}
	ext := g.Node(now)
	if ext == nil {
		t.Fatalf("missing external node %s", now)
	}
	if ext.Decl != nil || ext.Pkg != nil || len(ext.Calls) != 0 {
		t.Errorf("external node %s should be a bare leaf", now)
	}
}

// TestDettaintAcrossPackages runs the taint analyzer over the synthetic
// module: util.Stamp's direct time.Now call is flagged in util, and the
// taint entering through it surfaces in the other package at depth 2
// with the full chain.
func TestDettaintAcrossPackages(t *testing.T) {
	pkgs := loadMultimod(t)
	diags := Run(pkgs, []*Analyzer{Dettaint})
	var got []string
	for _, d := range diags {
		got = append(got, filepath.Base(d.Pos.Filename)+" "+d.Rule+" "+d.Message)
	}
	if len(diags) != 3 {
		t.Fatalf("want 3 dettaint findings (Stamp at depth 1, Run and Tick at depth 2), got %d:\n%v", len(diags), got)
	}
	for _, d := range diags {
		switch filepath.Base(d.Pos.Filename) {
		case "util.go":
			if len(d.Trace) != 2 || d.Trace[0] != "util.Stamp" || d.Trace[1] != "time.Now" {
				t.Errorf("trace %v, want [util.Stamp, time.Now]", d.Trace)
			}
		case "app.go":
			if len(d.Trace) != 3 || d.Trace[1] != "util.Stamp" || d.Trace[2] != "time.Now" {
				t.Errorf("trace %v, want [caller, util.Stamp, time.Now]", d.Trace)
			}
		default:
			t.Errorf("finding in %s, want app.go or util.go: %s", d.Pos.Filename, d)
		}
	}
}
