package jobs_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// wordcountTraceExport runs the canonical wordcount and returns the
// trace.jsonl the JobTracker persisted beside the job history — the
// byte-stable causal-trace export.
func wordcountTraceExport(t *testing.T) []byte {
	t.Helper()
	c, err := core.New(core.Options{Nodes: 6, Seed: 42, HDFS: hdfs.Config{BlockSize: 32 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(c.FS(), trace.Path("job_wordcount_combiner_0001"))
	if err != nil {
		t.Fatalf("trace export not persisted: %v", err)
	}
	return data
}

// TestGoldenTraceExport pins the persisted JSONL trace export byte-for-
// byte: trace/span IDs, parent links, span order and attrs all derive
// from the sim clock and registry sequence counters, so any diff means
// nondeterminism leaked into the tracing path.
func TestGoldenTraceExport(t *testing.T) {
	checkGolden(t, "golden_wordcount_trace.jsonl", wordcountTraceExport)
}

// TestTraceExportStructure decodes the export and checks the causal
// shape the waterfall and critical path rely on: one mr.job root, every
// span in the same trace, attempts under tasks, HDFS spans under
// attempts, and a shuffle span under each reduce attempt.
func TestTraceExportStructure(t *testing.T) {
	spans, err := history.Parse[obs.Span](wordcountTraceExport(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("empty trace export")
	}
	for _, s := range spans {
		if s.Trace != spans[0].Trace {
			t.Fatalf("span %s in trace %q, want %q", s.Name, s.Trace, spans[0].Trace)
		}
		if s.ID == 0 {
			t.Fatalf("span %s exported without identity", s.Name)
		}
	}
	roots := trace.Build(spans)
	if len(roots) != 1 || roots[0].Span.Name != "mr.job" {
		t.Fatalf("want exactly one mr.job root, got %d roots (first %q)", len(roots), roots[0].Span.Name)
	}
	var tasks, attempts, hdfsSpans, shuffles int
	for _, taskNode := range roots[0].Children {
		if taskNode.Span.Name != "mr.task" {
			t.Fatalf("child of mr.job is %q, want mr.task", taskNode.Span.Name)
		}
		tasks++
		for _, att := range taskNode.Children {
			if att.Span.Name != "mr.map_attempt" && att.Span.Name != "mr.reduce_attempt" {
				t.Fatalf("child of mr.task is %q, want an attempt span", att.Span.Name)
			}
			attempts++
			var shuffled bool
			for _, leaf := range att.Children {
				switch leaf.Span.Name {
				case "hdfs.write_pipeline", "hdfs.read_block":
					hdfsSpans++
					if leaf.Span.Attrs["node"] == "" {
						t.Fatalf("%s under %s has no node attr", leaf.Span.Name, att.Span.Attrs["attempt"])
					}
				case "mr.shuffle":
					shuffles++
					shuffled = true
				default:
					t.Fatalf("unexpected span %q under %s", leaf.Span.Name, att.Span.Attrs["attempt"])
				}
			}
			if att.Span.Name == "mr.reduce_attempt" && att.Span.Attrs["outcome"] == "succeeded" && !shuffled {
				t.Fatalf("reduce attempt %s has no shuffle span", att.Span.Attrs["attempt"])
			}
		}
	}
	if tasks == 0 || attempts == 0 || hdfsSpans == 0 || shuffles == 0 {
		t.Fatalf("thin trace: %d tasks, %d attempts, %d hdfs spans, %d shuffles",
			tasks, attempts, hdfsSpans, shuffles)
	}
}

// slowNodeAnalysis injects a badly degraded disk on one DataNode, runs
// wordcount, and returns the rendered critical path + blame of the job's
// trace — after asserting the path bottoms out in an hdfs.write_pipeline
// span on the slow node, reached through a reduce attempt's ancestry.
// This is the paper's straggler exercise done from the trace alone.
func slowNodeAnalysis(t *testing.T) []byte {
	t.Helper()
	c, err := core.New(core.Options{Nodes: 6, Seed: 42, HDFS: hdfs.Config{BlockSize: 32 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	slow := c.DFS.DataNode(3)
	slow.SetDiskSlowdown(40)
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	spans, err := history.Parse[obs.Span](mustRead(t, c, trace.Path("job_wordcount_combiner_0001")))
	if err != nil {
		t.Fatal(err)
	}
	roots := trace.Build(spans)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	steps := trace.CriticalPath(roots[0])

	// The path must pass through a reduce attempt and end in the slow
	// node's write pipeline — cross-layer blame, not just "the job was slow".
	var sawReduce bool
	leaf := steps[len(steps)-1]
	for _, st := range steps {
		if st.Span.Name == "mr.reduce_attempt" {
			sawReduce = true
		}
	}
	if !sawReduce {
		t.Fatalf("critical path has no reduce attempt:\n%s", trace.RenderCriticalPath(steps))
	}
	if leaf.Span.Name != "hdfs.write_pipeline" || leaf.Span.Attrs["node"] != slow.Hostname() {
		t.Fatalf("critical path leaf = %s on %q, want hdfs.write_pipeline on %q:\n%s",
			leaf.Span.Name, leaf.Span.Attrs["node"], slow.Hostname(), trace.RenderCriticalPath(steps))
	}
	// The top HDFS-layer blame row must be the slow node's pipeline. (The
	// mr-layer rows above it are the job/attempt self time — scheduling
	// serialization, shuffle, sort — not storage blame.)
	blames := trace.BlameTable(steps)
	var hdfsTop *trace.Blame
	for i := range blames {
		if blames[i].Layer == "hdfs" {
			hdfsTop = &blames[i]
			break
		}
	}
	if hdfsTop == nil || hdfsTop.Kind != "hdfs.write_pipeline" || hdfsTop.Node != slow.Hostname() {
		t.Fatalf("top hdfs blame = %+v, want hdfs.write_pipeline on %q:\n%s",
			hdfsTop, slow.Hostname(), trace.RenderBlame(blames))
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "wordcount, %s disk x40 slower\n\n", slow.Hostname())
	out.WriteString(trace.RenderCriticalPath(steps))
	out.WriteByte('\n')
	out.WriteString(trace.RenderBlame(blames))
	return out.Bytes()
}

func mustRead(t *testing.T, c *core.MiniCluster, path string) []byte {
	t.Helper()
	data, err := vfs.ReadFile(c.FS(), path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// TestGoldenTraceSlowNode pins the slow-node analysis as a text golden:
// the same injected fault must always produce the same critical path and
// the same blame attribution.
func TestGoldenTraceSlowNode(t *testing.T) {
	checkGolden(t, "golden_slow_node_analysis.txt", slowNodeAnalysis)
}
