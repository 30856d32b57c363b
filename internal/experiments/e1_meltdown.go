package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mrcluster"
	"repro/internal/sim"
)

// MeltdownResult is the structured outcome of E1.
type MeltdownResult struct {
	Students   int
	Faulty     int
	Completed  int
	FailedJobs int
	Unfinished int

	DeadTaskTrackers int
	DeadDataNodes    int

	UnderReplicatedAtDeadline int
	MissingAtDeadline         int
	CorruptedCluster          bool

	RecoveryTime        time.Duration
	HealthyAfterRestart bool
}

// CompletedFraction returns the share of students whose job finished.
func (m *MeltdownResult) CompletedFraction() float64 {
	if m.Students == 0 {
		return 0
	}
	return float64(m.Completed) / float64(m.Students)
}

// E1Meltdown replays the paper's Fall 2012 story: ~35 students, a
// deadline, procrastination-skewed submissions, and buggy jobs whose heap
// leaks crash the TaskTracker and DataNode daemons. The cluster
// accumulates under-replicated blocks, eventually "stops all the new
// jobs", and after a full restart takes ~15 minutes of DataNode integrity
// scans before the NameNode leaves safe mode. By the end of the semester
// only about one third of the students had completed the assignment.
func E1Meltdown(seed int64) (*Result, error) {
	const (
		students     = 35
		faultyRate   = 0.2
		window       = 4 * time.Hour
		grace        = 15 * time.Minute
		preloadBytes = int64(100) << 30 // course datasets preloaded per node
	)
	c, err := core.New(core.Options{
		Nodes: 8,
		Seed:  seed,
		HDFS: hdfs.Config{
			BlockSize:         32 << 10,
			Replication:       3,
			HeartbeatInterval: 3 * time.Second,
			HeartbeatExpiry:   30 * time.Second,
		},
		MR: withHeartbeats(expMRConfig(), 3*time.Second, 30*time.Second),
	})
	if err != nil {
		return nil, err
	}
	// Production-scale replay: 35 jobs, fault-driven resubmissions, tens
	// of attempts each. Head-sample 1-in-8 job traces — keep-everything is
	// the teaching default; a deadline crunch is where sampling earns its
	// keep (unsampled jobs record no spans; their history files remain).
	c.Obs.SetTraceSampling(8)
	for _, dn := range c.DFS.DataNodes() {
		dn.SetPreloadedBytes(preloadBytes)
	}
	if _, _, err := datagen.Trace(c.FS(), "/data/trace/task_events.csv",
		datagen.TraceOpts{Jobs: 40, MeanTasks: 20, Seed: seed}); err != nil {
		return nil, err
	}

	rng := sim.NewRand(seed).Derive("students")
	res := &MeltdownResult{Students: students}
	handles := make([]*mrcluster.JobHandle, students)
	base := c.Engine.Now()
	for i := 0; i < students; i++ {
		// Procrastination: sqrt(u) concentrates submissions at the deadline.
		u := rng.Float64()
		at := base + time.Duration(float64(window)*math.Sqrt(u))
		name := fmt.Sprintf("trace-s%02d", i)
		if rng.Bernoulli(faultyRate) {
			res.Faulty++
			c.MR.InjectTaskFault(mrcluster.TaskFault{
				JobName:       name,
				Scope:         mrcluster.ScopeMap,
				Probability:   0.7,
				AfterFraction: 0.7,
				CrashDaemons:  true,
			})
		}
		idx := i
		c.Engine.Schedule(at, func() {
			job := jobs.TraceMaxResubmissions("/data/trace", fmt.Sprintf("/out/s%02d", idx))
			job.Name = name
			h, err := c.MR.Submit(job)
			if err == nil {
				handles[idx] = h
			}
		})
	}

	// Run the deadline window plus grading grace.
	c.Engine.RunUntil(base + window + grace)

	for _, h := range handles {
		switch {
		case h == nil:
			res.Unfinished++
		case !h.Done():
			res.Unfinished++
		case h.Err() != nil:
			res.FailedJobs++
		default:
			res.Completed++
		}
	}
	for _, tt := range c.MR.TaskTrackers() {
		if !tt.Alive() {
			res.DeadTaskTrackers++
		}
	}
	for _, dn := range c.DFS.DataNodes() {
		if !dn.Alive() {
			res.DeadDataNodes++
		}
	}
	fsck, err := c.Fsck()
	if err != nil {
		return nil, err
	}
	res.UnderReplicatedAtDeadline = fsck.UnderReplicated
	res.MissingAtDeadline = fsck.MissingBlocks
	res.CorruptedCluster = !fsck.Healthy()

	// Full cluster restart: every daemon comes down and back up; each
	// DataNode re-verifies its (100 GB) local data before reporting.
	restartAt := c.Engine.Now()
	for _, dn := range c.DFS.DataNodes() {
		dn.Kill()
	}
	for _, tt := range c.MR.TaskTrackers() {
		c.MR.KillTaskTracker(tt.ID())
	}
	c.DFS.NN.Restart()
	for _, dn := range c.DFS.DataNodes() {
		dn.Start()
	}
	for _, tt := range c.MR.TaskTrackers() {
		c.MR.StartTaskTracker(tt.ID())
	}
	for i := 0; i < 240 && c.DFS.NN.InSafeMode(); i++ {
		c.Engine.Advance(15 * time.Second)
	}
	if !c.DFS.NN.InSafeMode() {
		res.RecoveryTime = c.DFS.NN.SafeModeExitedAt() - restartAt
	}
	c.Engine.Advance(2 * time.Minute) // let the replication monitor settle
	fsck2, err := c.Fsck()
	if err != nil {
		return nil, err
	}
	res.HealthyAfterRestart = fsck2.Healthy()

	out := &Result{
		ID:     "E1",
		Title:  "Deadline meltdown: 35 students, buggy jobs crash TaskTracker+DataNode daemons",
		Header: []string{"metric", "value", "paper says"},
		Raw:    res,
		Headline: map[string]float64{
			"completed-fraction": res.CompletedFraction(),
			"recovery-minutes":   res.RecoveryTime.Minutes(),
			"dead-datanodes":     float64(res.DeadDataNodes),
		},
	}
	addRow := func(metric, value, paper string) {
		out.Rows = append(out.Rows, []string{metric, value, paper})
	}
	addRow("students / faulty jobs", fmt.Sprintf("%d / %d", res.Students, res.Faulty), "large number waited until the last day")
	addRow("jobs completed", fmt.Sprintf("%d (%.0f%%)", res.Completed, 100*res.CompletedFraction()), "only about one third completed")
	addRow("jobs failed", fmt.Sprintf("%d", res.FailedJobs), "run time errors ... crashed the daemons")
	addRow("jobs never finished", fmt.Sprintf("%d", res.Unfinished), "corrupted cluster stopped all the new jobs")
	addRow("dead TaskTrackers / DataNodes", fmt.Sprintf("%d / %d", res.DeadTaskTrackers, res.DeadDataNodes), "crashed the task tracker and data node daemons")
	addRow("under-replicated blocks at deadline", fmt.Sprintf("%d", res.UnderReplicatedAtDeadline), "additional under-replicated data blocks")
	addRow("missing blocks at deadline", fmt.Sprintf("%d", res.MissingAtDeadline), "corrupted Hadoop cluster")
	addRow("restart -> safe-mode exit", fmtDur(res.RecoveryTime), "at least fifteen minutes ... to check data integrity")
	addRow("healthy after full restart", fmt.Sprintf("%v", res.HealthyAfterRestart), "data survived; availability did not")
	return out, nil
}

func withHeartbeats(cfg mrcluster.Config, hb, expiry time.Duration) mrcluster.Config {
	cfg.HeartbeatInterval = hb
	cfg.TrackerExpiry = expiry
	return cfg
}
