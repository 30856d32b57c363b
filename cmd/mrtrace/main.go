// Command mrtrace reads exported trace files (the JSONL span logs the
// JobTracker writes beside each job's history under /history/<jobid>/
// in HDFS) and reprints a trace's causal structure without the cluster
// that recorded it: the span tree, the cross-layer critical path, and
// the blame table.
//
// Export the file first (hadoop fs -get /history/<jobid>/trace.jsonl),
// or point -file at any JSONL span export.
//
// Usage:
//
//	mrtrace -file trace.jsonl -list            list trace ids, slowest first
//	mrtrace -file trace.jsonl -trace <id>      one trace's span tree
//	mrtrace -file trace.jsonl -critical-path   critical path of the slowest trace
//	mrtrace -file trace.jsonl -blame           blame table of the slowest trace
//
// -trace combines with -critical-path/-blame to analyze a specific id.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	file := flag.String("file", "", "trace.jsonl export to read")
	traceID := flag.String("trace", "", "trace id to print (default: the slowest)")
	list := flag.Bool("list", false, "list trace ids, slowest first")
	critPath := flag.Bool("critical-path", false, "print the trace's critical path")
	blame := flag.Bool("blame", false, "print the trace's blame table")
	flag.Parse()

	if *file == "" {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	spans, err := history.Parse[obs.Span](data)
	if err != nil {
		fatal(err)
	}
	sums := trace.Summaries(spans)
	if len(sums) == 0 {
		fmt.Println("no traced spans in", *file)
		return
	}

	if *list {
		for _, s := range sums {
			fmt.Println(trace.RenderSummary(s))
		}
		return
	}

	id := obs.TraceID(*traceID)
	if id == "" {
		id = sums[0].ID // the slowest
	}
	a, err := trace.Analyze(spans, id)
	if err != nil {
		fatal(fmt.Errorf("%s: %w (try -list)", *file, err))
	}
	if !*critPath && !*blame {
		fmt.Printf("trace %s — %d span(s)\n", a.ID, len(a.Spans))
		for _, r := range a.Roots {
			fmt.Print(trace.RenderTree(r))
		}
		return
	}
	if *critPath {
		fmt.Print(trace.RenderCriticalPath(a.Path))
	}
	if *blame {
		fmt.Print(trace.RenderBlame(a.Blame))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrtrace:", err)
	os.Exit(1)
}
