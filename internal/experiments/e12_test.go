package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/digesttest"
)

// TestE12Smoke is the CI gate on the multi-tenant replay: a
// hundreds-of-apps version of E12 (the full registry entry replays
// 1,200) that must drain in both scheduling modes and keep the
// experiment's qualitative shape — every tenant's apps finish, and the
// capacity scheduler does not leave the students queue worse off than
// FIFO under the deadline bunching.
func TestE12Smoke(t *testing.T) {
	res, err := E12Scaled(7, E12Opts{Apps: 240, Students: 70})
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := res.Raw.(*E12Result)
	if !ok {
		t.Fatalf("E12 Raw is %T, want *E12Result", res.Raw)
	}
	if raw.Apps != 240 {
		t.Fatalf("workload has %d apps, want 240", raw.Apps)
	}
	if raw.Students != 70 {
		t.Fatalf("workload has %d student apps, want 70", raw.Students)
	}
	for _, s := range []*E12RunStats{&raw.FIFO, &raw.Capacity} {
		total := 0
		for _, q := range s.Queues {
			if q.Apps == 0 {
				t.Fatalf("tenant %s has no apps in the replay", q.Queue)
			}
			if q.P99 < q.P50 {
				t.Fatalf("tenant %s: p99 %v < p50 %v", q.Queue, q.P99, q.P50)
			}
			total += q.Apps
		}
		if total != raw.Apps {
			t.Fatalf("per-tenant apps sum to %d, want %d", total, raw.Apps)
		}
		if s.Makespan <= 0 || s.NodeHours <= 0 {
			t.Fatalf("degenerate run stats: %+v", s)
		}
	}
	fifoP99 := raw.FIFO.QueueStats(datagen.QueueStudents).P99
	capP99 := raw.Capacity.QueueStats(datagen.QueueStudents).P99
	if capP99 > fifoP99 {
		t.Fatalf("capacity scheduling made students p99 worse: fifo %v, capacity %v", fifoP99, capP99)
	}
	// Autoscaling must not cost more node-hours than the fixed FIFO pool.
	if raw.Capacity.NodeHours > raw.FIFO.NodeHours {
		t.Fatalf("autoscaled pool burned %.1f node-hours vs %.1f fixed", raw.Capacity.NodeHours, raw.FIFO.NodeHours)
	}
}

// TestE12TraceReplayDeterministic replays the trace workload through the
// capacity scheduler twice per seed and demands byte-identical artifacts:
// the scheduler's history event log and the obs snapshot. One seed runs
// at the full 1,200-app trace scale; the others at smoke scale. Any
// wall-clock read, shared rand, or map-ordered decision anywhere in the
// scheduler, preemption monitor, or autoscaler breaks this test.
//
// Replay-vs-replay cannot see a change that moves both replays, so each
// artifact's sha256 is also pinned in testdata/e12_replay.sha256 (recorded
// at the commit before internal/yarn became single-generation): a
// scheduler refactor must not reorder or re-word a single event or metric.
func TestE12TraceReplayDeterministic(t *testing.T) {
	pinned := digesttest.Read(t, "testdata/e12_replay.sha256")
	cases := []struct {
		seed int64
		opts E12Opts
	}{
		{seed: 1234, opts: E12Opts{}}, // full 1,200-app trace
		{seed: 7, opts: E12Opts{Apps: 200, Students: 60}},
		{seed: 99, opts: E12Opts{Apps: 200, Students: 60}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprint(tc.seed), func(t *testing.T) {
			if testing.Short() && tc.opts == (E12Opts{}) {
				t.Skip("tier-2: full-scale replay skipped in -short mode")
			}
			log1, snap1, err := E12ReplayArtifacts(tc.seed, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			log2, snap2, err := E12ReplayArtifacts(tc.seed, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(log1) == 0 {
				t.Fatal("replay produced an empty scheduler event log")
			}
			if !bytes.Equal(log1, log2) {
				t.Fatalf("scheduler event logs differ between identical replays (%d vs %d bytes)", len(log1), len(log2))
			}
			if !bytes.Equal(snap1, snap2) {
				t.Fatalf("obs snapshots differ between identical replays (%d vs %d bytes)", len(snap1), len(snap2))
			}
			digesttest.Assert(t, pinned, fmt.Sprintf("e12-seed%d.events.jsonl", tc.seed), log1)
			digesttest.Assert(t, pinned, fmt.Sprintf("e12-seed%d.obs.json", tc.seed), snap1)
		})
	}
}
