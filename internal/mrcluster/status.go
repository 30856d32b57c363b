package mrcluster

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/mapreduce"
)

// JobStatus is one row of the JobTracker status page.
type JobStatus struct {
	JobID       string
	Name        string
	State       string
	MapProgress float64
	RedProgress float64
	Submitted   time.Duration
}

// Jobs returns the status of every job ever submitted, in order.
func (jt *JobTracker) Jobs() []JobStatus {
	var out []JobStatus
	for _, jr := range jt.jobs {
		st := "RUNNING"
		switch jr.state {
		case jobSucceeded:
			st = "SUCCEEDED"
		case jobFailed:
			st = "FAILED"
		}
		js := JobStatus{
			JobID:     jr.id,
			Name:      jr.job.Name,
			State:     st,
			Submitted: jr.submittedAt,
		}
		if len(jr.maps) > 0 {
			js.MapProgress = float64(jr.mapsDone) / float64(len(jr.maps))
		}
		if len(jr.reduces) > 0 {
			js.RedProgress = float64(jr.reducesDone) / float64(len(jr.reduces))
		}
		out = append(out, js)
	}
	return out
}

// StatusPage renders the JobTracker web interface as text: the cluster
// summary and job table students watched to observe map task run times
// ("observed through Hadoop's JobTracker's web interface").
func (mc *MRCluster) StatusPage() string {
	var b strings.Builder
	now := mc.Engine.Now()
	fmt.Fprintf(&b, "=== JobTracker 'web interface' (virtual time %v) ===\n", now)
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
	fmt.Fprintf(&b, "TaskTrackers: %d/%d alive   Map slots: %d/%d busy   Reduce slots: %d/%d busy\n",
		live, len(mc.trackers), mapUsed, mapSlots, redUsed, redSlots)
	fmt.Fprintf(&b, "\n%-24s %-26s %-10s %8s %8s\n", "Job ID", "Name", "State", "Maps", "Reduces")
	for _, js := range mc.JT.Jobs() {
		fmt.Fprintf(&b, "%-24s %-26s %-10s %7.0f%% %7.0f%%\n",
			js.JobID, js.Name, js.State, 100*js.MapProgress, 100*js.RedProgress)
	}
	fmt.Fprintf(&b, "\nPer-tracker state:\n")
	for _, tt := range mc.trackers {
		state := "dead"
		if tt.alive {
			state = fmt.Sprintf("alive, %d map + %d reduce task(s) running",
				tt.slotsUsed[kindMap], tt.slotsUsed[kindReduce])
		}
		fmt.Fprintf(&b, "  %-10s %s\n", tt.node.Hostname, state)
	}
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
