package mrcluster_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/faultinject/invariant"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/serial"
	"repro/internal/vfs"
)

// serialWordCount computes the fault-free reference output for a corpus.
func serialWordCount(t *testing.T, data []byte, reducers int) string {
	t.Helper()
	local := vfs.NewMemFS()
	if err := vfs.WriteFile(local, "/in/data.txt", data); err != nil {
		t.Fatal(err)
	}
	j := wordCountJob("/in", "/out")
	j.NumReducers = reducers
	if _, err := (&serial.Runner{FS: local}).Run(j); err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadOutput(local, "/out")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// chaosRig builds the 6-node cluster the MR chaos plans run against.
func chaosRig(t *testing.T, data []byte, mcfg mrcluster.Config) *testRig {
	t.Helper()
	mcfg.HeartbeatInterval = time.Second
	mcfg.TrackerExpiry = 5 * time.Second
	rig := newRig(t, 6, 2, hdfs.Config{
		BlockSize:           8 << 10,
		Replication:         3,
		HeartbeatInterval:   time.Second,
		HeartbeatExpiry:     5 * time.Second,
		ReplMonitorInterval: 2 * time.Second,
	}, mcfg)
	rig.stage(t, "/in/data.txt", data)
	return rig
}

// TestChaosJobSurvivesNodeFailures is the MapReduce half of the chaos
// harness: with at most replication-1 concurrent node failures (each
// taking down a DataNode and a TaskTracker together), a seeded random
// fault plan must not stop wordcount from completing with exactly the
// serial runner's output, and the filesystem must settle clean after.
func TestChaosJobSurvivesNodeFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2 chaos test")
	}
	data := corpus(3000)
	want := serialWordCount(t, data, 3)
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rig := chaosRig(t, data, mrcluster.Config{})
		plan := faultinject.RandomPlan(seed, faultinject.PlanOpts{
			Nodes: 6, Racks: 2, Events: 8,
			Horizon:           45 * time.Second,
			MaxConcurrentDown: 2,
			Kinds: []faultinject.Kind{
				faultinject.NodeCrash, faultinject.NodeRestart, faultinject.HeartbeatDrop,
			},
		})
		in, err := faultinject.New(faultinject.Target{Engine: rig.eng, DFS: rig.dfs, MR: rig.mc}, plan)
		if err != nil {
			t.Fatal(err)
		}
		base := rig.eng.Now()
		in.Install()
		job := wordCountJob("/in", "/out")
		job.NumReducers = 3
		rep, err := rig.mc.Run(job)
		if err != nil {
			t.Fatalf("seed %d: job failed under plan:\n%s\n%v", seed, in.LogString(), err)
		}
		if err := invariant.CountersConsistent(rep); err != nil {
			t.Fatalf("seed %d: %v\nlog:\n%s", seed, err, in.LogString())
		}
		got, err := mapreduce.ReadOutput(rig.dfs.Client(hdfs.GatewayNode), "/out")
		if err != nil {
			t.Fatal(err)
		}
		if err := invariant.OutputsEqual(want, got); err != nil {
			t.Fatalf("seed %d: %v\nlog:\n%s", seed, err, in.LogString())
		}
		assertLifecycleDigest(t, fmt.Sprintf("chaos-node-failures-seed%d", seed), rig, rep.JobID, in.LogString())
		rig.eng.RunUntil(base + plan.Horizon() + time.Second)
		if _, err := invariant.FsckSettled(rig.dfs, 3*time.Minute); err != nil {
			t.Fatalf("seed %d: %v\nlog:\n%s", seed, err, in.LogString())
		}
	}
}

// TestChaosSpeculationFiresUnderSlowNode plants a straggler through the
// harness (SlowNode, factor 8) and checks that speculative execution
// launches backup attempts and the output still matches the serial run.
func TestChaosSpeculationFiresUnderSlowNode(t *testing.T) {
	data := corpus(3000)
	want := serialWordCount(t, data, 3)
	rig := chaosRig(t, data, mrcluster.Config{Speculative: true})
	plan := faultinject.Plan{Seed: 9, Faults: []faultinject.Fault{
		{At: 0, Kind: faultinject.SlowNode, Node: 2, Factor: 8},
	}}
	in, err := faultinject.New(faultinject.Target{Engine: rig.eng, DFS: rig.dfs, MR: rig.mc}, plan)
	if err != nil {
		t.Fatal(err)
	}
	in.Install()
	job := wordCountJob("/in", "/out")
	job.NumReducers = 3
	rep, err := rig.mc.Run(job)
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if launched := rep.Counters.Get(mapreduce.CtrSpeculativeLaunch); launched == 0 {
		t.Fatalf("no speculative attempts launched against a x8 straggler:\n%s", rep)
	}
	assertLifecycleDigest(t, "chaos-speculation-slow-node", rig, rep.JobID, in.LogString())
	if err := invariant.CountersConsistent(rep); err != nil {
		t.Fatal(err)
	}
	got, err := mapreduce.ReadOutput(rig.dfs.Client(hdfs.GatewayNode), "/out")
	if err != nil {
		t.Fatal(err)
	}
	if err := invariant.OutputsEqual(want, got); err != nil {
		t.Fatal(err)
	}
}

// TestChaosTaskErrorsAllScopes arms map, reduce and shuffle faults at
// once (below the retry budget) and requires the job to grind through
// retries to the correct answer.
func TestChaosTaskErrorsAllScopes(t *testing.T) {
	data := corpus(2000)
	want := serialWordCount(t, data, 3)
	rig := chaosRig(t, data, mrcluster.Config{MaxAttempts: 6})
	plan := faultinject.Plan{Seed: 4, Faults: []faultinject.Fault{
		{At: 0, Kind: faultinject.TaskError, Task: mrcluster.TaskFault{
			JobName: "wordcount", Scope: mrcluster.ScopeMap, Probability: 0.3, AfterFraction: 0.5}},
		{At: 0, Kind: faultinject.TaskError, Task: mrcluster.TaskFault{
			JobName: "wordcount", Scope: mrcluster.ScopeShuffle, Probability: 0.3, AfterFraction: 0.4}},
		{At: 0, Kind: faultinject.TaskError, Task: mrcluster.TaskFault{
			JobName: "wordcount", Scope: mrcluster.ScopeReduce, Probability: 0.3, AfterFraction: 0.6}},
	}}
	in, err := faultinject.New(faultinject.Target{Engine: rig.eng, DFS: rig.dfs, MR: rig.mc}, plan)
	if err != nil {
		t.Fatal(err)
	}
	in.Install()
	job := wordCountJob("/in", "/out")
	job.NumReducers = 3
	rep, err := rig.mc.Run(job)
	if err != nil {
		t.Fatalf("job failed: %v\n%s", err, in.LogString())
	}
	if rep.Counters.Get(mapreduce.CtrTaskRetries) == 0 {
		t.Fatalf("expected injected task errors to force retries:\n%s", rep)
	}
	assertLifecycleDigest(t, "chaos-task-errors-all-scopes", rig, rep.JobID, in.LogString())
	if err := invariant.CountersConsistent(rep); err != nil {
		t.Fatal(err)
	}
	got, err := mapreduce.ReadOutput(rig.dfs.Client(hdfs.GatewayNode), "/out")
	if err != nil {
		t.Fatal(err)
	}
	if err := invariant.OutputsEqual(want, got); err != nil {
		t.Fatal(err)
	}
}
