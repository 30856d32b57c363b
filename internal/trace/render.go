package trace

import (
	"fmt"
	"strings"
	"time"
)

// RenderSummary renders one line of a trace index: id, root span name,
// duration and population. cmd/mrtrace -list and /traces both list
// traces with it.
func RenderSummary(s Summary) string {
	name := s.Root.Name
	if name == "" {
		name = "(root span not recorded)"
	}
	return fmt.Sprintf("%-22s %-20s %10v  %3d span(s)",
		s.ID, name, s.Root.Duration().Round(time.Microsecond), s.Spans)
}

// RenderTree renders one trace tree as an indented span listing —
// cmd/mrtrace's offline view of the webui waterfall.
func RenderTree(root *Node) string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%-24s %10v  start %v%s\n",
			strings.Repeat("  ", depth), n.Span.Name,
			n.Span.Duration().Round(time.Microsecond),
			n.Span.Start.Round(time.Microsecond), attrSuffix(n.Span.Attrs))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// renderAttrKeys is the attr subset worth a line of terminal: identity
// and blame, not raw sizes.
var renderAttrKeys = []string{"job", "task", "attempt", "node", "block", "op", "table", "region", "server", "app", "container", "outcome", "result", "reason"}

func attrSuffix(attrs map[string]string) string {
	var parts []string
	for _, k := range renderAttrKeys {
		if v, ok := attrs[k]; ok {
			parts = append(parts, k+"="+v)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "  [" + strings.Join(parts, " ") + "]"
}

// RenderCriticalPath renders the root-to-leaf critical path with per-step
// self time.
func RenderCriticalPath(steps []Step) string {
	var b strings.Builder
	b.WriteString("Critical path (root -> leaf, self = time not explained by the critical child):\n")
	for i, st := range steps {
		fmt.Fprintf(&b, "  %d. %-24s %-10s span %10v  self %10v%s\n",
			i+1, st.Span.Name, orDash(st.Span.Attrs["node"]),
			st.Span.Duration().Round(time.Microsecond), st.Self.Round(time.Microsecond),
			attrSuffix(st.Span.Attrs))
	}
	return b.String()
}

// RenderBlame renders the aggregated blame table, biggest debtor first.
func RenderBlame(blames []Blame) string {
	var b strings.Builder
	b.WriteString("Blame (critical-path self time by layer/kind/node):\n")
	for _, bl := range blames {
		fmt.Fprintf(&b, "  %-8s %-24s %-10s %10v  (%d step(s))\n",
			bl.Layer, bl.Kind, orDash(bl.Node), bl.Self.Round(time.Microsecond), bl.Steps)
	}
	return b.String()
}

// orDash is the node column of a span that ran on no particular node.
func orDash(node string) string {
	if node == "" {
		return "-"
	}
	return node
}
