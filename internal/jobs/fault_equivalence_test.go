package jobs_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/faultinject/invariant"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/serial"
	"repro/internal/vfs"
)

// faultPlanFor builds the crash/restart + task-error gauntlet a job must
// sail through without changing a byte of output: one node dies early and
// comes back, a second bounces later, and every task scope of the job
// takes probabilistic errors.
func faultPlanFor(jobName string) faultinject.Plan {
	return faultinject.Plan{Seed: 77, Faults: []faultinject.Fault{
		{At: 1 * time.Second, Kind: faultinject.TaskError, Task: mrcluster.TaskFault{
			JobName: jobName, Scope: mrcluster.ScopeMap, Probability: 0.25, AfterFraction: 0.5}},
		{At: 1 * time.Second, Kind: faultinject.TaskError, Task: mrcluster.TaskFault{
			JobName: jobName, Scope: mrcluster.ScopeShuffle, Probability: 0.2, AfterFraction: 0.4}},
		{At: 1 * time.Second, Kind: faultinject.TaskError, Task: mrcluster.TaskFault{
			JobName: jobName, Scope: mrcluster.ScopeReduce, Probability: 0.2, AfterFraction: 0.6}},
		{At: 2 * time.Second, Kind: faultinject.NodeCrash, Node: 1},
		{At: 9 * time.Second, Kind: faultinject.NodeRestart, Node: 1},
		{At: 12 * time.Second, Kind: faultinject.NodeCrash, Node: 4},
		{At: 20 * time.Second, Kind: faultinject.NodeRestart, Node: 4},
	}}
}

// faultCluster builds the cluster the gauntlet runs on: fast heartbeats so
// the schedulers notice the crashes within the test's virtual horizon, and
// a deeper retry budget to absorb the injected task errors.
func faultCluster(t *testing.T) *core.MiniCluster {
	t.Helper()
	c, err := core.New(core.Options{
		Nodes: 6, Racks: 2, Seed: 5,
		HDFS: hdfs.Config{
			BlockSize:           16 << 10,
			Replication:         3,
			HeartbeatInterval:   time.Second,
			HeartbeatExpiry:     5 * time.Second,
			ReplMonitorInterval: 2 * time.Second,
		},
		MR: mrcluster.Config{
			MaxAttempts:       6,
			HeartbeatInterval: time.Second,
			TrackerExpiry:     5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runFaultEquivalence stages identical input standalone and on the
// cluster, runs the job serially and distributed-under-faults, and
// requires byte-equal outputs plus a clean settle.
func runFaultEquivalence(t *testing.T, stage func(fs vfs.FileSystem) error,
	build func(fs vfs.FileSystem) (*mapreduce.Job, error)) {
	t.Helper()

	local := vfs.NewMemFS()
	if err := stage(local); err != nil {
		t.Fatal(err)
	}
	sj, err := build(local)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&serial.Runner{FS: local, Parallelism: 3}).Run(sj); err != nil {
		t.Fatal(err)
	}
	want, err := mapreduce.ReadOutput(local, "/out")
	if err != nil {
		t.Fatal(err)
	}

	c := faultCluster(t)
	if err := stage(c.FS()); err != nil {
		t.Fatal(err)
	}
	dj, err := build(c.FS())
	if err != nil {
		t.Fatal(err)
	}
	plan := faultPlanFor(dj.Name)
	in, err := faultinject.New(faultinject.Target{Engine: c.Engine, DFS: c.DFS, MR: c.MR}, plan)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Engine.Now()
	in.Install()
	rep, err := c.Run(dj)
	if err != nil {
		t.Fatalf("%s failed under fault plan: %v\nlog:\n%s", dj.Name, err, in.LogString())
	}
	if err := invariant.CountersConsistent(rep); err != nil {
		t.Fatalf("%v\nlog:\n%s", err, in.LogString())
	}
	got, err := c.Output("/out")
	if err != nil {
		t.Fatal(err)
	}
	if err := invariant.OutputsEqual(want, got); err != nil {
		t.Fatalf("%s under faults: %v\nlog:\n%s", dj.Name, err, in.LogString())
	}
	c.Engine.RunUntil(base + plan.Horizon() + time.Second)
	if _, err := invariant.FsckSettled(c.DFS, 3*time.Minute); err != nil {
		t.Fatalf("%v\nlog:\n%s", err, in.LogString())
	}
}

// TestWordCountEquivalentUnderFaults: wordcount's distributed output under
// the crash/restart + task-error plan byte-equals the serial runner's.
func TestWordCountEquivalentUnderFaults(t *testing.T) {
	runFaultEquivalence(t,
		func(fs vfs.FileSystem) error {
			_, _, err := datagen.Text(fs, "/in/corpus.txt", datagen.TextOpts{Lines: 600, Seed: 77})
			return err
		},
		func(fs vfs.FileSystem) (*mapreduce.Job, error) {
			return jobs.WordCount("/in", "/out", false), nil
		})
}

// TestTeraSortEquivalentUnderFaults: the total-order sort keeps its exact
// global order (and every record) through the same fault gauntlet.
func TestTeraSortEquivalentUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2 chaos test")
	}
	runFaultEquivalence(t,
		func(fs vfs.FileSystem) error {
			_, _, err := datagen.Sortable(fs, "/in/records.txt", datagen.SortableOpts{Rows: 5000, Seed: 77})
			return err
		},
		func(fs vfs.FileSystem) (*mapreduce.Job, error) {
			return jobs.TeraSort(fs, "/in", "/out", 4)
		})
}
