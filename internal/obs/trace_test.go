package obs_test

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTraceIdentity(t *testing.T) {
	r := obs.NewRegistry()
	root := r.NewTrace(5 * time.Millisecond)
	if !root.Valid() {
		t.Fatal("root ctx invalid with sampling off")
	}
	child := root.NewChild()
	grand := child.NewChild()
	// Record out of order: leaf first, root last — identity was allocated
	// at Ctx creation, so the tree still hangs together.
	grand.End("leaf.op", 10, 20, nil)
	child.End("mid.op", 5, 25, map[string]string{"k": "v"})
	root.End("root.op", 0, 30, nil)

	spans := r.SpansTraced(root.Trace())
	if len(spans) != 3 {
		t.Fatalf("SpansTraced = %d spans, want 3", len(spans))
	}
	byName := map[string]obs.Span{}
	for _, s := range spans {
		if s.Trace != root.Trace() {
			t.Fatalf("span %s trace = %q, want %q", s.Name, s.Trace, root.Trace())
		}
		byName[s.Name] = s
	}
	if byName["root.op"].Parent != 0 {
		t.Fatalf("root parent = %d, want 0", byName["root.op"].Parent)
	}
	if byName["mid.op"].Parent != byName["root.op"].ID {
		t.Fatalf("mid parent = %d, want root %d", byName["mid.op"].Parent, byName["root.op"].ID)
	}
	if byName["leaf.op"].Parent != byName["mid.op"].ID {
		t.Fatalf("leaf parent = %d, want mid %d", byName["leaf.op"].Parent, byName["mid.op"].ID)
	}
}

func TestTraceInvalidCtxNoops(t *testing.T) {
	var zero obs.Ctx
	if zero.Valid() {
		t.Fatal("zero Ctx reports valid")
	}
	zero.End("nope", 0, 1, nil) // must not panic
	if c := zero.NewChild(); c.Valid() {
		t.Fatal("child of invalid ctx reports valid")
	}
	zero.ChildSpan("nope", 0, 1, nil)
	var nilReg *obs.Registry
	if c := nilReg.NewTrace(0); c.Valid() {
		t.Fatal("nil registry produced a valid ctx")
	}
	nilReg.NewTrace(0).End("nope", 0, 1, nil) // nil-safe
}

func TestTraceHeadSampling(t *testing.T) {
	r := obs.NewRegistry()
	r.SetTraceSampling(3)
	var kept int
	for i := 0; i < 9; i++ {
		ctx := r.NewTrace(time.Duration(i))
		if ctx.Valid() {
			kept++
			ctx.End("sampled.op", 0, 1, nil)
		}
	}
	if kept != 3 {
		t.Fatalf("kept %d of 9 traces at 1-in-3 sampling, want 3", kept)
	}
	if got := len(spansNamed(r, "sampled.op")); got != 3 {
		t.Fatalf("recorded %d sampled spans, want 3", got)
	}
}

// TestUnsampledTraceRecordsNothing: a context of an unsampled trace —
// its root, every context derived from it, a leaf under it — and the zero
// Ctx record no span, spend no span ID and spend no sampling slot.
func TestUnsampledTraceRecordsNothing(t *testing.T) {
	r := obs.NewRegistry()
	r.SetTraceSampling(2)
	kept, dropped := r.NewTrace(0), r.NewTrace(0)
	if !kept.Valid() || dropped.Valid() {
		t.Fatalf("1-in-2 sampling: first valid=%v second valid=%v", kept.Valid(), dropped.Valid())
	}
	for name, ctx := range map[string]obs.Ctx{
		"dropped.root":  dropped,
		"dropped.child": dropped.NewChild().NewChild(),
		"zero":          {},
	} {
		if ctx.Valid() || ctx.Trace() != "" {
			t.Fatalf("%s: unsampled ctx reports valid / trace %q", name, ctx.Trace())
		}
		ctx.End(name, 1, 2, nil)
		ctx.ChildSpan(name+".leaf", 2, 3, nil)
	}
	if spans := r.Spans(); len(spans) != 0 {
		t.Fatalf("unsampled contexts recorded %d span(s): %+v", len(spans), spans)
	}
	// None of the above allocated a span ID: the next sampled child
	// follows the kept root directly.
	kept.ChildSpan("kept.leaf", 2, 3, nil)
	kept.End("kept.root", 0, 3, nil)
	leaf, root := spansNamed(r, "kept.leaf")[0], spansNamed(r, "kept.root")[0]
	if leaf.Parent != root.ID || leaf.ID != root.ID+1 || leaf.Trace != root.Trace {
		t.Fatalf("sampled child %+v does not follow root %+v", leaf, root)
	}
	// Nor a slot of the sampling window: trace 3 is the next kept one.
	if next := r.NewTrace(0); !next.Valid() {
		t.Fatal("an unsampled End consumed a sampling slot")
	}
}

// TestTraceDeterministicIDs replays the same allocation sequence on two
// registries and expects byte-identical identity — the contract the
// golden trace exports rely on.
func TestTraceDeterministicIDs(t *testing.T) {
	build := func() []obs.Span {
		r := obs.NewRegistry()
		for i := 0; i < 4; i++ {
			root := r.NewTrace(time.Duration(i) * time.Second)
			c := root.NewChild()
			c.End("child.op", 0, 1, nil)
			root.End("root.op", 0, 2, nil)
		}
		return r.Spans()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Trace != b[i].Trace || a[i].ID != b[i].ID || a[i].Parent != b[i].Parent {
			t.Fatalf("replay diverged at span %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
