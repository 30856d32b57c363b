// Package trace is the read side of the causal-tracing subsystem
// (internal/obs trace.go): per-trace tree reconstruction, the cross-layer
// critical path, and blame attribution. internal/history's report and
// this package answer different questions about the same run.
// JobReport.CriticalPath is a predecessor chain over attempts — the
// gating map and its retries, then the last reduce and its retries —
// that needs nothing but the durable history file. CriticalPath here is
// a containment descent through one trace's span tree, so it crosses
// layers: a reduce attempt's path can bottom out in the HDFS write
// pipeline of one slow DataNode, and the blame table says so — node,
// layer and span kind. Neither is derived from the other.
//
// Exports are JSONL (history.Marshal over the trace's spans), persisted
// into HDFS next to the job-history file, and byte-identical across
// replays of the same seed — pinned by the golden-trace tests in
// internal/jobs.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
)

// Path returns the HDFS path a job's trace export persists at, beside
// the job's history file.
func Path(jobID string) string { return history.Dir(jobID) + "/trace.jsonl" }

// Node is one span in a reconstructed trace tree, children in record
// order.
type Node struct {
	Span     obs.Span
	Children []*Node
}

// Build reconstructs the trees of one or more traces from a flat span
// list: spans with no parent — or whose parent never recorded — become
// roots, in record order. Spans without identity are ignored.
func Build(spans []obs.Span) []*Node {
	byID := map[obs.SpanID]*Node{}
	var nodes []*Node
	for _, s := range spans {
		if s.ID == 0 {
			continue
		}
		n := &Node{Span: s}
		byID[s.ID] = n
		nodes = append(nodes, n)
	}
	var roots []*Node
	for _, n := range nodes {
		if p := byID[n.Span.Parent]; p != nil && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// Step is one hop of a critical path: the span, and the self time blamed
// on it — the part of its extent not covered by its critical child (the
// leaf keeps its whole duration).
type Step struct {
	Span obs.Span
	Self time.Duration
}

// CriticalPath walks root to leaf, at each node descending into the
// child whose End is latest (ties break on record order, which is
// deterministic), and attributes to each step the time its critical
// child does not explain.
func CriticalPath(root *Node) []Step {
	var path []Step
	for n := root; n != nil; {
		var next *Node
		for _, c := range n.Children {
			if next == nil || c.Span.End > next.Span.End {
				next = c
			}
		}
		self := n.Span.Duration()
		if next != nil {
			self -= next.Span.Duration()
			if self < 0 {
				self = 0
			}
		}
		path = append(path, Step{Span: n.Span, Self: self})
		n = next
	}
	return path
}

// Layer returns the layer a span name belongs to: the dotted prefix
// ("mr", "hdfs", "yarn", "serving").
func Layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// Blame is self time aggregated over critical-path steps sharing a
// (layer, span kind, node) signature — the "who do I go yell at" table.
type Blame struct {
	Layer string
	Kind  string
	Node  string
	Self  time.Duration
	Steps int
}

// BlameTable aggregates critical-path steps into blame rows, largest
// self time first (ties by layer, kind, node for determinism).
func BlameTable(steps []Step) []Blame {
	type key struct{ layer, kind, node string }
	idx := map[key]int{}
	var out []Blame
	for _, st := range steps {
		k := key{Layer(st.Span.Name), st.Span.Name, st.Span.Attrs["node"]}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, Blame{Layer: k.layer, Kind: k.kind, Node: k.node})
		}
		out[i].Self += st.Self
		out[i].Steps++
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Summary describes one trace: its root span, whose extent is the
// trace's duration, and its population.
type Summary struct {
	ID    obs.TraceID
	Root  obs.Span
	Spans int
}

// Summaries groups a flat span list by trace and summarizes each, the
// slowest trace first (ties keep first-recorded order). A trace's root is
// its first recorded parentless span; identity-less spans are skipped.
func Summaries(spans []obs.Span) []Summary {
	idx := map[obs.TraceID]int{}
	var out []Summary
	for _, s := range spans {
		if s.Trace == "" {
			continue
		}
		i, ok := idx[s.Trace]
		if !ok {
			i = len(out)
			idx[s.Trace] = i
			out = append(out, Summary{ID: s.Trace})
		}
		out[i].Spans++
		if s.Parent == 0 && out[i].Root.ID == 0 {
			out[i].Root = s
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Root.Duration() > out[j].Root.Duration() })
	return out
}

// Analysis is one trace taken apart: its spans, the trees they form,
// the critical path through the longest tree, and that path's blame.
type Analysis struct {
	ID    obs.TraceID
	Spans []obs.Span // the trace's spans, in record order
	Roots []*Node
	Path  []Step
	Blame []Blame
}

// ErrNoTrace is Analyze's error for a trace id no span carries.
var ErrNoTrace = errors.New("trace: no such trace")

// Analyze picks trace id out of a flat span list and takes it apart. The
// critical path descends from the longest root: a trace whose parent
// spans never recorded can have several. Span lists come off disk as well
// as out of a live registry, so one without that trace, or whose parent
// links leave no span a root, is an error.
func Analyze(spans []obs.Span, id obs.TraceID) (*Analysis, error) {
	a := &Analysis{ID: id}
	for _, s := range spans {
		if s.Trace == id {
			a.Spans = append(a.Spans, s)
		}
	}
	// The empty id is what identity-less spans carry; it names no trace.
	if id == "" || len(a.Spans) == 0 {
		return nil, fmt.Errorf("%w %q", ErrNoTrace, id)
	}
	a.Roots = Build(a.Spans)
	if len(a.Roots) == 0 {
		return nil, fmt.Errorf("trace: none of the %d span(s) of %q is a root: parent links form a cycle, or span ids are missing", len(a.Spans), id)
	}
	best := a.Roots[0]
	for _, r := range a.Roots {
		if r.Span.Duration() > best.Span.Duration() {
			best = r
		}
	}
	a.Path = CriticalPath(best)
	a.Blame = BlameTable(a.Path)
	return a, nil
}
