package mrcluster

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/sim"
)

// Report is the job summary the students studied after each run — phase
// times on the virtual clock, task counts, locality breakdown, and the
// full counter set (shuffle bytes, HDFS bytes, combiner activity).
type Report struct {
	JobID   string
	JobName string
	Failed  bool
	Err     error

	SubmittedAt sim.Time
	MapsDoneAt  sim.Time
	FinishedAt  sim.Time

	MapTasks    int
	ReduceTasks int

	MedianMapTime    time.Duration
	MedianReduceTime time.Duration

	Counters *mapreduce.Counters
}

// Makespan returns the job's total virtual duration.
func (r *Report) Makespan() time.Duration { return r.FinishedAt - r.SubmittedAt }

// MapPhase returns the duration of the map phase.
func (r *Report) MapPhase() time.Duration {
	if r.MapsDoneAt == 0 {
		return 0
	}
	return r.MapsDoneAt - r.SubmittedAt
}

// ReducePhase returns the duration of the shuffle+reduce phase.
func (r *Report) ReducePhase() time.Duration {
	if r.MapsDoneAt == 0 {
		return 0
	}
	return r.FinishedAt - r.MapsDoneAt
}

// ShuffleBytes returns the bytes moved in the shuffle.
func (r *Report) ShuffleBytes() int64 { return r.Counters.Get(mapreduce.CtrShuffleBytes) }

// localMaps returns the completed map runs that ran data-local, and all
// completed map runs: a map re-run after its output was lost counts again.
func (r *Report) localMaps() (local, runs int64) {
	local = r.Counters.Get(mapreduce.CtrDataLocalMaps)
	return local, local + r.Counters.Get(mapreduce.CtrRackLocalMaps) + r.Counters.Get(mapreduce.CtrRemoteMaps)
}

// LocalityFraction returns the fraction of completed map runs that ran
// data-local.
func (r *Report) LocalityFraction() float64 {
	local, runs := r.localMaps()
	if runs == 0 {
		return 0
	}
	return float64(local) / float64(runs)
}

// String renders the report in the style of a Hadoop job summary.
func (r *Report) String() string {
	var b strings.Builder
	status := "completed successfully"
	if r.Failed {
		status = fmt.Sprintf("FAILED: %v", r.Err)
	}
	fmt.Fprintf(&b, "Job %s (%s) %s\n", r.JobID, r.JobName, status)
	fmt.Fprintf(&b, "  Map tasks=%d  Reduce tasks=%d\n", r.MapTasks, r.ReduceTasks)
	fmt.Fprintf(&b, "  Map phase=%v  Reduce phase=%v  Makespan=%v\n",
		r.MapPhase().Round(time.Millisecond),
		r.ReducePhase().Round(time.Millisecond),
		r.Makespan().Round(time.Millisecond))
	local, runs := r.localMaps()
	fmt.Fprintf(&b, "  Data-local maps=%d/%d (%.0f%%)\n", local, runs, 100*r.LocalityFraction())
	fmt.Fprintf(&b, "  Counters:\n%s", r.Counters)
	return b.String()
}

func buildReport(jr *jobRun) *Report {
	return &Report{
		JobID:            jr.id,
		JobName:          jr.job.Name,
		Failed:           jr.state == jobFailed,
		Err:              jr.err,
		SubmittedAt:      jr.submittedAt,
		MapsDoneAt:       jr.mapsDoneAt,
		FinishedAt:       jr.finishedAt,
		MapTasks:         len(jr.maps),
		ReduceTasks:      len(jr.reduces),
		MedianMapTime:    median(jr.durations[kindMap]),
		MedianReduceTime: median(jr.durations[kindReduce]),
		Counters:         jr.counters,
	}
}
