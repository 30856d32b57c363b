package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/digesttest"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mrcluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// e1DeadlineSnapshot replays E1's cluster, workload and fault schedule
// (e1_meltdown.go: 8 nodes, 35 students, 1-in-8 trace sampling, daemon-
// crashing map faults) through the deadline window and returns the obs
// snapshot: 4 sampled jobs, and 31 unsampled ones that record no span.
// E1Meltdown keeps its cluster to itself, so the set-up is repeated here.
func e1DeadlineSnapshot(t *testing.T) []byte {
	t.Helper()
	c, err := core.New(core.Options{
		Nodes: 8,
		Seed:  testSeed,
		HDFS: hdfs.Config{
			BlockSize:         32 << 10,
			Replication:       3,
			HeartbeatInterval: 3 * time.Second,
			HeartbeatExpiry:   30 * time.Second,
		},
		MR: withHeartbeats(expMRConfig(), 3*time.Second, 30*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Obs.SetTraceSampling(8)
	if _, _, err := datagen.Trace(c.FS(), "/data/trace/task_events.csv",
		datagen.TraceOpts{Jobs: 40, MeanTasks: 20, Seed: testSeed}); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(testSeed).Derive("students")
	base := c.Engine.Now()
	for i := 0; i < 35; i++ {
		at := base + time.Duration(float64(4*time.Hour)*math.Sqrt(rng.Float64()))
		name := fmt.Sprintf("trace-s%02d", i)
		if rng.Bernoulli(0.2) {
			c.MR.InjectTaskFault(mrcluster.TaskFault{
				JobName: name, Scope: mrcluster.ScopeMap,
				Probability: 0.7, AfterFraction: 0.7, CrashDaemons: true,
			})
		}
		out := fmt.Sprintf("/out/s%02d", i)
		c.Engine.Schedule(at, func() {
			job := jobs.TraceMaxResubmissions("/data/trace", out)
			job.Name = name
			_, _ = c.MR.Submit(job) // a dead cluster refusing the job is part of the replay
		})
	}
	c.Engine.RunUntil(base + 4*time.Hour + 15*time.Minute)
	return snapshotJSON(t, c)
}

// wordcountUnsampledSnapshot is the canonical wordcount of internal/jobs'
// golden_wordcount.json with trace sampling at 1<<30, which is what
// bench/ sets for its traceOff arm. The one kept trace of the window went
// to the NameNode's start-up safe-mode span, so the job records no span.
func wordcountUnsampledSnapshot(t *testing.T) []byte {
	t.Helper()
	c, err := core.New(core.Options{Nodes: 6, Seed: 42, HDFS: hdfs.Config{BlockSize: 32 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	c.Obs.SetTraceSampling(1 << 30)
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	return snapshotJSON(t, c)
}

func snapshotJSON(t *testing.T, c *core.MiniCluster) []byte {
	t.Helper()
	data, err := c.Obs.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSampledModeReplay pins the obs snapshot — every counter, histogram
// bucket and span, in record order — of the span-recording modes no
// golden covers: a run where most jobs are unsampled and record no span,
// and the canonical wordcount with sampling switched as far off as it
// goes. Every recorded span must carry trace identity. The digests in
// testdata/sampled_replay.sha256 were last recorded from snapshots with
// their spans outside a sampled trace dropped, before such spans stopped
// being recorded. The keep-everything mode is pinned by the goldens under
// internal/jobs.
func TestSampledModeReplay(t *testing.T) {
	pinned := digesttest.Read(t, "testdata/sampled_replay.sha256")
	for _, tc := range []struct {
		name   string
		build  func(*testing.T) []byte
		traced int // job spans
	}{
		{"e1-deadline-sampling8.obs.json", e1DeadlineSnapshot, 4},
		{"wordcount-sampling-off.obs.json", wordcountUnsampledSnapshot, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.build(t)
			var snap obs.Snapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			traced := 0
			for _, s := range snap.Spans {
				if s.Trace == "" || s.ID == 0 {
					t.Fatalf("span %s [%d, %d] has no trace identity", s.Name, s.Start, s.End)
				}
				if s.Name == mrcluster.SpanJob {
					traced++
				}
			}
			if traced != tc.traced {
				t.Errorf("%d traced job spans, want %d", traced, tc.traced)
			}
			digesttest.Assert(t, pinned, tc.name, data)
		})
	}
}
