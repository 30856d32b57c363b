package webui

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// tracesPage lists every recorded trace, slowest first — the index the
// "trace the straggler" lab starts from.
func tracesPage(reg *obs.Registry) string {
	sums := trace.Summaries(reg.Spans())
	if len(sums) == 0 {
		return "no traces recorded yet\n"
	}
	var b strings.Builder
	b.WriteString("traces, slowest first (open /trace/<id>):\n")
	for _, s := range sums {
		fmt.Fprintf(&b, "  %s%s\n", trace.RenderSummary(s), attrSummary(s.Root.Attrs))
	}
	return b.String()
}

// attrSummary picks the identity attr worth showing on an index line.
func attrSummary(attrs obs.Attrs) string {
	for _, k := range []string{"job", "op", "block", "region", "app"} {
		if v := attrs.Get(k); v != "" {
			return "  " + k + "=" + v
		}
	}
	return ""
}

// traceWaterfallPage renders one trace: a gantt waterfall of its span
// tree (same bar renderer as the attempt gantt), then the cross-layer
// critical path and blame table.
func traceWaterfallPage(reg *obs.Registry, id string) (string, error) {
	a, err := trace.Analyze(reg.SpansTraced(obs.TraceID(id)), obs.TraceID(id))
	if err != nil {
		return "", err
	}
	spans := a.Spans
	origin, last := spans[0].Start, spans[0].End
	for _, s := range spans {
		if s.Start < origin {
			origin = s.Start
		}
		if s.End > last {
			last = s.End
		}
	}
	width := last - origin
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s — %d span(s), %v\n\n", id, len(spans),
		width.Round(time.Millisecond))
	var walk func(n *trace.Node, depth int)
	walk = func(n *trace.Node, depth int) {
		s := n.Span
		label := strings.Repeat("  ", depth) + s.Name
		node := s.Attrs.Get("node")
		fmt.Fprintf(&b, "|%s| %-34s %-10s %v\n",
			ganttBar(s.Start, s.End, origin, width), label, node,
			s.Duration().Round(time.Millisecond))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range a.Roots {
		walk(r, 0)
	}
	b.WriteByte('\n')
	b.WriteString(trace.RenderCriticalPath(a.Path))
	b.WriteByte('\n')
	b.WriteString(trace.RenderBlame(a.Blame))
	return b.String(), nil
}
