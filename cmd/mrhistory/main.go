// Command mrhistory reads persisted job-history files (the JSONL event
// logs the JobTracker writes under /history/<jobid>/ in HDFS) and
// reprints a job's lifecycle the way `hadoop job -history` did —
// without needing the cluster that ran it.
//
// Export the file first (hadoop fs -get /history/<jobid>/events.jsonl),
// or point -dir at a directory tree laid out like /history.
//
// Usage:
//
//	mrhistory -file events.jsonl            job summary + attempt table
//	mrhistory -file events.jsonl -analyze   critical path, slowest attempts,
//	                                        shuffle + per-node attribution
//	mrhistory -dir ./hist -list             list job ids under ./hist
//	mrhistory -dir ./hist -job job_x_0001 -analyze
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/history"
)

func main() {
	file := flag.String("file", "", "history events.jsonl file to read")
	dir := flag.String("dir", ".", "history directory tree (<jobid>/events.jsonl)")
	jobID := flag.String("job", "", "job id to read from -dir")
	list := flag.Bool("list", false, "list job ids under -dir")
	analyze := flag.Bool("analyze", false, "print critical-path analysis instead of the summary")
	flag.Parse()

	if *list {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			fatal(err)
		}
		var ids []string
		for _, e := range entries {
			if _, statErr := os.Stat(filepath.Join(*dir, e.Name(), "events.jsonl")); statErr == nil {
				ids = append(ids, e.Name())
			}
		}
		sort.Strings(ids)
		if len(ids) == 0 {
			fmt.Println("no job histories found")
			return
		}
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	path := *file
	if path == "" {
		if *jobID == "" {
			flag.Usage()
			os.Exit(2)
		}
		path = filepath.Join(*dir, *jobID, "events.jsonl")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	events, err := history.Parse[history.Event](data)
	if err != nil {
		fatal(err)
	}
	rep, err := history.BuildJobReport(events)
	if err != nil {
		fatal(err)
	}
	if *analyze {
		fmt.Print(rep.AnalysisString())
	} else {
		fmt.Print(rep.SummaryString())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrhistory:", err)
	os.Exit(1)
}
