package mrcluster

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/history"
	"repro/internal/mapreduce"
)

// StatusPage renders the JobTracker web interface as text: the cluster
// summary and job table students watched to observe map task run times
// ("observed through Hadoop's JobTracker's web interface").
func (mc *MRCluster) StatusPage() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "=== JobTracker 'web interface' (virtual time %v) ===\n", mc.Engine.Now())
	live, mapSlots, mapUsed, redSlots, redUsed := 0, 0, 0, 0, 0
	for _, tt := range mc.trackers {
		if tt.alive {
			live++
			mapSlots += mc.cfg.MapSlotsPerNode
			redSlots += reduceSlotsPerNode
			mapUsed += tt.slotsUsed[kindMap]
			redUsed += tt.slotsUsed[kindReduce]
		}
	}
	fmt.Fprintf(tw, "TaskTrackers: %d/%d alive   Map slots: %d/%d busy   Reduce slots: %d/%d busy\n",
		live, len(mc.trackers), mapUsed, mapSlots, redUsed, redSlots)
	fmt.Fprintf(tw, "\nJob ID\tName\tState\tMaps\tReduces\n")
	for _, jr := range mc.JT.jobs {
		state := [...]string{jobRunning: "RUNNING", jobSucceeded: "SUCCEEDED", jobFailed: "FAILED"}[jr.state]
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d%%\t%d%%\n", jr.id, jr.job.Name, state,
			100*jr.mapsDone/max(len(jr.maps), 1), 100*jr.reducesDone/max(len(jr.reduces), 1))
	}
	fmt.Fprintf(tw, "\nPer-tracker state:\n")
	for _, tt := range mc.trackers {
		state := "dead"
		if tt.alive {
			state = fmt.Sprintf("alive, %d map + %d reduce task(s) running",
				tt.slotsUsed[kindMap], tt.slotsUsed[kindReduce])
		}
		fmt.Fprintf(tw, "  %s\t%s\n", tt.node.Hostname, state)
	}
	tw.Flush()
	return b.String()
}

// Reports returns the attempt timeline of every finished job, in
// submission order, built from the job's history log — the same events,
// through the same builder, as the history file persisted into HDFS.
func (jt *JobTracker) Reports() ([]*history.JobReport, error) {
	var out []*history.JobReport
	for _, jr := range jt.jobs {
		if jr.state == jobRunning {
			continue
		}
		rep, err := history.BuildJobReport(jr.hist.Events())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jr.id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// CompletedJobCounters returns the counters of the most recently
// successful job, if any (convenience for UIs).
func (jt *JobTracker) CompletedJobCounters() *mapreduce.Counters {
	for i := len(jt.jobs) - 1; i >= 0; i-- {
		if jt.jobs[i].state == jobSucceeded {
			return jt.jobs[i].counters
		}
	}
	return nil
}
