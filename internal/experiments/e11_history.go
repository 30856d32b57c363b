package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/jobs"
	"repro/internal/vfs"
)

// E11Result is the structured outcome of E11: how much evidence the
// history subsystem records for a canonical run, and what the
// critical-path analysis attributes the makespan to.
type E11Result struct {
	// Volume of the two event streams and the persisted artifact.
	AuditEvents    int64
	JobEvents      int64
	BytesPersisted int64
	// Rebuilt from the persisted history file alone.
	Makespan         time.Duration
	Attempts         int
	CriticalPathLen  int
	PathWorkFraction float64 // critical-path work / makespan, 0..1
	ShuffleFraction  float64 // shuffle / total reduce time, 0..1
}

// E11History runs the canonical wordcount, then audits the auditors: it
// throws the live cluster away and reconstructs the job purely from what
// the history subsystem persisted — the NameNode audit log and the
// /history/<jobid>/events.jsonl file — the same exercise the history lab
// asks students to do by hand.
func E11History(seed int64) (*Result, error) {
	c, err := core.New(core.Options{
		Nodes: 8,
		Seed:  seed,
		HDFS:  hdfs.Config{BlockSize: 64 << 10, Replication: 3},
		MR:    expMRConfig(),
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 20000, Seed: seed}); err != nil {
		return nil, err
	}
	rep, err := c.Run(jobs.WordCount("/in", "/out", true))
	if err != nil {
		return nil, err
	}

	res := &E11Result{
		AuditEvents:    c.Obs.CounterValue(history.MetricAuditEvents),
		JobEvents:      c.Obs.CounterValue(history.MetricJobEvents),
		BytesPersisted: c.Obs.CounterValue(history.MetricBytesPersisted),
	}

	// From here on, use only the persisted file — not the live JobTracker.
	data, err := vfs.ReadFile(c.FS(), history.EventsPath(rep.JobID))
	if err != nil {
		return nil, fmt.Errorf("E11: reading persisted history: %w", err)
	}
	events, err := history.Parse[history.Event](data)
	if err != nil {
		return nil, err
	}
	jr, err := history.BuildJobReport(events)
	if err != nil {
		return nil, err
	}
	res.Makespan = jr.Makespan()
	res.Attempts = len(jr.Attempts)
	path := jr.CriticalPath()
	res.CriticalPathLen = len(path)
	var pathWork time.Duration
	for _, a := range path {
		pathWork += a.Duration()
	}
	if res.Makespan > 0 {
		res.PathWorkFraction = float64(pathWork) / float64(res.Makespan)
	}
	if shuffle, reduceTotal := jr.ShuffleTotal(); reduceTotal > 0 {
		res.ShuffleFraction = float64(shuffle) / float64(reduceTotal)
	}

	out := &Result{
		ID:     "E11",
		Title:  "Job history & audit: reconstructing a run from its event logs",
		Header: []string{"record", "value"},
		Raw:    res,
		Rows: [][]string{
			{"NameNode audit events", fmt.Sprintf("%d", res.AuditEvents)},
			{"job-history events", fmt.Sprintf("%d", res.JobEvents)},
			{"history bytes persisted to HDFS", fmt.Sprintf("%d", res.BytesPersisted)},
			{"attempts in history file", fmt.Sprintf("%d", res.Attempts)},
			{"critical-path attempts", fmt.Sprintf("%d", res.CriticalPathLen)},
			{"critical-path work / makespan", fmt.Sprintf("%.1f%%", 100*res.PathWorkFraction)},
			{"shuffle share of reduce time", fmt.Sprintf("%.1f%%", 100*res.ShuffleFraction)},
		},
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("makespan %s rebuilt from /history/%s/events.jsonl alone; the live cluster was not consulted",
			fmtDur(res.Makespan), rep.JobID))
	return out, nil
}
