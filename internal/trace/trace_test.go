package trace_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fixture records two traces — a fast one, and a slow one whose critical
// path runs job -> attempt -> pipeline (the slow leaf) — behind one span
// of no trace, as a file may hold one; every reader here must skip it.
func fixture() []obs.Span {
	r := obs.NewRegistry()
	slow := r.NewTrace(0)
	att := slow.NewChild()
	pipe := att.NewChild()
	shuf := att.NewChild()
	shuf.End("mr.shuffle", 10, 40, map[string]string{"attempt": "a1"})
	pipe.End("hdfs.write_pipeline", 10, 90, map[string]string{"node": "node3"})
	att.End("mr.reduce_attempt", 10, 100, map[string]string{"node": "node1"})
	slow.End("mr.job", 0, 120, map[string]string{"job": "job_x"})

	fast := r.NewTrace(time.Second)
	fast.End("serving.request", 0, 5, map[string]string{"op": "get"})
	flat := obs.Span{Name: "hdfs.write_pipeline", Start: 0, End: 500, Attrs: map[string]string{"node": "node9"}}
	return append([]obs.Span{flat}, r.Spans()...)
}

func TestBuildAndCriticalPath(t *testing.T) {
	roots := trace.Build(fixture())
	if len(roots) != 2 {
		t.Fatalf("Build = %d roots, want 2 (the flat span is no root)", len(roots))
	}
	if roots[0].Span.Name != "mr.job" {
		t.Fatalf("first root = %s, want mr.job (record order)", roots[0].Span.Name)
	}
	steps := trace.CriticalPath(roots[0])
	var names []string
	for _, s := range steps {
		names = append(names, s.Span.Name)
	}
	want := []string{"mr.job", "mr.reduce_attempt", "hdfs.write_pipeline"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("critical path = %v, want %v", names, want)
	}
	// Self times: leaf keeps its duration; parents keep the rest.
	if steps[2].Self != 80 {
		t.Fatalf("pipeline self = %v, want 80ns", steps[2].Self)
	}
	if steps[1].Self != 10 { // 90 - 80
		t.Fatalf("attempt self = %v, want 10ns", steps[1].Self)
	}
	if steps[0].Self != 30 { // 120 - 90
		t.Fatalf("job self = %v, want 30ns", steps[0].Self)
	}
}

func TestBlameTable(t *testing.T) {
	roots := trace.Build(fixture())
	blames := trace.BlameTable(trace.CriticalPath(roots[0]))
	if len(blames) != 3 {
		t.Fatalf("blame rows = %d, want 3", len(blames))
	}
	top := blames[0]
	if top.Kind != "hdfs.write_pipeline" || top.Layer != "hdfs" || top.Node != "node3" {
		t.Fatalf("top blame = %+v, want hdfs.write_pipeline on node3", top)
	}
}

func TestSummariesAndSlowest(t *testing.T) {
	// The fast trace records first here; the slow one must still lead.
	spans := fixture()
	sums := trace.Summaries(append(spans[5:], spans[:5]...))
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	if sums[0].Root.Name != "mr.job" || sums[0].Spans != 4 || sums[0].Root.Duration() != 120 {
		t.Fatalf("slowest = %+v, want the 4-span mr.job trace", sums[0])
	}
	if sums[1].Root.Name != "serving.request" || sums[1].Spans != 1 {
		t.Fatalf("second = %+v, want the serving.request trace", sums[1])
	}
	if line := trace.RenderSummary(sums[0]); !strings.Contains(line, "mr.job") || !strings.Contains(line, "4 span(s)") {
		t.Fatalf("summary line: %q", line)
	}
	if line := trace.RenderSummary(trace.Summaries(spans[1:4])[0]); !strings.Contains(line, "(root span not recorded)") {
		t.Fatalf("rootless summary line: %q", line)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	spans := fixture()
	data, err := history.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := history.Parse[obs.Span](data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("round trip = %d spans, want %d", len(back), len(spans))
	}
	for i := range back {
		if back[i].Trace != spans[i].Trace || back[i].ID != spans[i].ID ||
			back[i].Parent != spans[i].Parent || back[i].Name != spans[i].Name {
			t.Fatalf("span %d changed across round trip: %+v vs %+v", i, back[i], spans[i])
		}
	}
	data2, err := history.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("Marshal not byte-stable across a Parse round trip")
	}
}

func TestRenderers(t *testing.T) {
	roots := trace.Build(fixture())
	steps := trace.CriticalPath(roots[0])
	tree := trace.RenderTree(roots[0])
	for _, want := range []string{"mr.job", "  mr.reduce_attempt", "    hdfs.write_pipeline", "node=node3"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	cp := trace.RenderCriticalPath(steps)
	if !strings.Contains(cp, "hdfs.write_pipeline") || !strings.Contains(cp, "self") {
		t.Fatalf("critical path render:\n%s", cp)
	}
	bl := trace.RenderBlame(trace.BlameTable(steps))
	if !strings.Contains(bl, "node3") {
		t.Fatalf("blame render:\n%s", bl)
	}
}

// TestAnalyze drives the one select → build → longest root → critical
// path → blame sequence cmd/mrtrace and /trace/<id> share, including the
// span lists it must refuse instead of indexing an empty root slice.
func TestAnalyze(t *testing.T) {
	spans := fixture()
	slow, fast := spans[1].Trace, spans[len(spans)-1].Trace
	a, err := trace.Analyze(spans, slow)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != slow || len(a.Spans) != 4 || len(a.Roots) != 1 {
		t.Fatalf("picked %s with %d spans, %d roots; want the slow trace %s, 4, 1", a.ID, len(a.Spans), len(a.Roots), slow)
	}
	if len(a.Path) != 3 || a.Path[2].Span.Name != "hdfs.write_pipeline" || a.Blame[0].Node != "node3" {
		t.Fatalf("path %+v\nblame %+v", a.Path, a.Blame)
	}
	if a, err = trace.Analyze(spans, fast); err != nil || len(a.Spans) != 1 || a.Path[0].Span.Name != "serving.request" {
		t.Fatalf("named pick: %+v, %v", a, err)
	}
	// Two roots (the attempt's parent never recorded): the path descends
	// from the longer one.
	orphaned := append([]obs.Span{{Name: "mr.setup", Start: 0, End: 3, Trace: slow, ID: 90}}, spans[1:4]...)
	if a, err = trace.Analyze(orphaned, slow); err != nil || len(a.Roots) != 2 || a.Path[0].Span.Name != "mr.reduce_attempt" {
		t.Fatalf("orphaned: %+v, %v", a, err)
	}
	for name, bad := range map[string]struct {
		spans []obs.Span
		id    obs.TraceID
	}{
		"unknown id":  {spans, "t999999-0"},
		"no id":       {spans, ""}, // must not pick the flat span
		"empty":       {nil, slow},
		"cycle":       {[]obs.Span{{Name: "a", Trace: "t1", ID: 1, Parent: 2}, {Name: "b", Trace: "t1", ID: 2, Parent: 1}}, "t1"},
		"missing ids": {[]obs.Span{{Name: "a", Trace: "t1"}}, "t1"},
	} {
		if a, err := trace.Analyze(bad.spans, bad.id); err == nil {
			t.Errorf("%s: Analyze = %+v, want an error", name, a)
		}
	}
}
