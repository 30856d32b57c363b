package mrcluster_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/digesttest"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/yarn"
)

// assertLifecycleDigest pins one run's attempt-lifecycle artifacts across
// commits: sha256 over the job's persisted history file, the cluster's obs
// snapshot and the fault injector's executed-fault log, compared with the
// digest recorded in testdata/lifecycle_replay.sha256 at 4e05ae0 — the
// commit before the JobTracker's map and reduce attempt paths were folded
// into one — and re-recorded once, from snapshots with their spans
// outside a sampled trace dropped, before such spans stopped being
// recorded. The goldens under internal/jobs/testdata pin the happy path;
// this pins fail, kill, speculate, crash and preempt. A refactor of the
// lifecycle must not move one event, span, counter or scheduling decision.
func assertLifecycleDigest(t *testing.T, name string, rig *testRig, jobID, faultLog string) {
	t.Helper()
	events, err := vfs.ReadFile(rig.dfs.Client(hdfs.GatewayNode), history.EventsPath(jobID))
	if err != nil {
		t.Fatalf("%s: history of %s not persisted: %v", name, jobID, err)
	}
	snap, err := rig.mc.Obs.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	pinned := digesttest.Read(t, "testdata/lifecycle_replay.sha256")
	digesttest.Assert(t, pinned, name, events, snap, []byte(faultLog))
}

// newYARNRig is the rig of internal/jobs/yarn_mode_test.go (6 nodes, seed
// 5, 32 KiB blocks, JobTracker as a YARN application) with two
// half-guarantee queues and the preemption monitor on, so a tenant
// arriving in queue b claws containers back from a job running in a.
func newYARNRig(t *testing.T, mcfg mrcluster.Config) (*testRig, *yarn.ResourceManager) {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(6, 1))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: hdfs.Config{BlockSize: 32 << 10}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := yarn.NewCapacityResourceManager(eng, topo, yarn.CapacityOptions{
		Queues: yarn.QueueConfig{Name: "root", Children: []yarn.QueueConfig{
			{Name: "a", Capacity: 0.5, MaxCapacity: 1.0, UserLimitFactor: 4},
			{Name: "b", Capacity: 0.5, MaxCapacity: 1.0, UserLimitFactor: 4},
		}},
		Preemption: yarn.PreemptionConfig{Enabled: true},
		Obs:        dfs.Obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	mcfg.YARN = rm
	return &testRig{eng: eng, dfs: dfs, mc: mrcluster.NewMRCluster(dfs, mcfg, 6)}, rm
}

// competingApp fills queue b's guarantee with plain YARN tasks.
func competingApp(tasks int, d time.Duration) yarn.AppSpec {
	spec := yarn.AppSpec{Name: "claim", User: "ub", Queue: "b"}
	for i := 0; i < tasks; i++ {
		spec.Tasks = append(spec.Tasks, yarn.TaskSpec{Resource: yarn.Resource{VCores: 1, MemoryMB: 1024}, Duration: d})
	}
	return spec
}

// TestYARNModePreemptionReplay runs wordcount as a YARN application that
// spreads over the whole idle cluster, then lands a competing tenant in
// the other queue — once in the map phase, once in the reduce phase. The
// RM preempts task containers, the JobTracker kills the attempts inside
// without a failure charge (discarding a reduce attempt's staged output),
// and the job still finishes with every attempt accounted for.
func TestYARNModePreemptionReplay(t *testing.T) {
	// ~140 one-block maps and 60 reduces, each minutes long: wider than
	// queue a's 48-vcore guarantee and spanning several preemption rounds.
	rig, rm := newYARNRig(t, mrcluster.Config{
		MapWork:    cluster.CPUWork{PerByte: 6_000_000},
		ReduceWork: cluster.CPUWork{PerByte: 1_000_000},
	})
	// A 997-word vocabulary, so every one of the 60 partitions has work.
	var in strings.Builder
	for i := 0; i < 800_000; i++ {
		fmt.Fprintf(&in, "w%03d", i*7%997)
		if i%8 == 7 {
			in.WriteByte('\n')
		} else {
			in.WriteByte(' ')
		}
	}
	rig.stage(t, "/in/data.txt", []byte(in.String()))
	claim := func() {
		if _, err := rm.Submit(competingApp(40, 2*time.Minute)); err != nil {
			t.Error(err)
		}
	}
	rig.eng.After(20*time.Second, claim)
	var watch *sim.Ticker
	watch = rig.eng.Every(5*time.Second, func() {
		if rig.mc.Obs.CounterValue(mrcluster.MetricJTReducesLaunched) >= 50 {
			watch.Stop()
			claim()
		}
	})
	job := wordCountJob("/in", "/out")
	job.NumReducers = 60
	job.Queue = "a"
	rep, err := rig.mc.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	killed := map[string]int{}
	for _, s := range rig.mc.Obs.Spans() {
		if s.Attrs.Get("outcome") == "killed:preempted" {
			killed[s.Name]++
		}
	}
	if killed[mrcluster.SpanMapAttempt] == 0 || killed[mrcluster.SpanReduceAttempt] == 0 {
		t.Fatalf("want preempted map and reduce attempts, got %v (%d RM preemptions)", killed, rm.Preemptions())
	}
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
	assertLifecycleDigest(t, "yarn-preemption", rig, rep.JobID, "")
}

// TestReduceCommitFailureFailsTheAttempt makes the winning reduce
// attempt's commit fail — the part file appears under it after it
// launched — and checks the attempt ends as a failed attempt before the
// job fails: every attempt.start in the persisted history has exactly one
// terminal event, and the rebuilt report shows nothing still running.
func TestReduceCommitFailureFailsTheAttempt(t *testing.T) {
	rig := newRig(t, 4, 1, hdfs.Config{BlockSize: 64 << 10}, mrcluster.Config{})
	rig.stage(t, "/in/data.txt", corpus(200))
	h, err := rig.mc.Submit(wordCountJob("/in", "/out"))
	if err != nil {
		t.Fatal(err)
	}
	for rig.mc.Obs.CounterValue(mrcluster.MetricJTReducesLaunched) == 0 {
		if !rig.eng.Step() {
			t.Fatal("simulation stalled before the reduce launched")
		}
	}
	rig.stage(t, "/out/part-r-00000", []byte("squatter\n"))
	for !h.Done() {
		if !rig.eng.Step() {
			t.Fatal("simulation stalled with the job incomplete")
		}
	}
	if err := h.Err(); err == nil || !strings.Contains(err.Error(), "commit of attempt_") || !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("job error = %v, want the reduce attempt's commit error", err)
	}
	if got := h.Report().Counters.Get(mapreduce.CtrFailedReduces); got != 1 {
		t.Fatalf("%s = %d, want 1", mapreduce.CtrFailedReduces, got)
	}
	data, err := vfs.ReadFile(rig.dfs.Client(hdfs.GatewayNode), history.EventsPath(h.Report().JobID))
	if err != nil {
		t.Fatal(err)
	}
	events, err := history.Parse[history.Event](data)
	if err != nil {
		t.Fatal(err)
	}
	terminals := map[string]int{}
	for _, e := range events {
		switch e.Type {
		case history.EvAttemptStart:
			terminals[e.Attrs.Get("attempt")] += 0
		case history.EvAttemptFinish, history.EvAttemptFail, history.EvAttemptKill:
			terminals[e.Attrs.Get("attempt")]++
		}
	}
	for id, n := range terminals {
		if n != 1 {
			t.Errorf("%s has %d terminal events, want exactly 1", id, n)
		}
	}
	rep, err := history.BuildJobReport(events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != "failed" {
		t.Errorf("history outcome %q, want failed", rep.Outcome)
	}
	for _, a := range rep.Attempts {
		if a.Outcome == "running" {
			t.Errorf("%s still running in a finished job's history", a.ID)
		}
	}
}
