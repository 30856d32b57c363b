package faultinject_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/faultinject/invariant"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mrcluster"
)

// mixedPlan exercises every fault kind against a running wordcount.
func mixedPlan() faultinject.Plan {
	return faultinject.Plan{Seed: 42, Faults: []faultinject.Fault{
		{At: 2 * time.Second, Kind: faultinject.NodeCrash, Node: 1},
		{At: 3 * time.Second, Kind: faultinject.TaskError, Task: mrcluster.TaskFault{
			JobName: "wordcount", Scope: mrcluster.ScopeReduce, Probability: 0.4, AfterFraction: 0.5}},
		{At: 4 * time.Second, Kind: faultinject.DiskCorruptBlock, Node: faultinject.AnyNode},
		{At: 6 * time.Second, Kind: faultinject.SlowNode, Node: 3, Factor: 3},
		{At: 8 * time.Second, Kind: faultinject.HeartbeatDrop, Node: 2, Window: 7 * time.Second},
		{At: 10 * time.Second, Kind: faultinject.NetPartition, Node: 4},
		{At: 20 * time.Second, Kind: faultinject.NetHeal},
		{At: 22 * time.Second, Kind: faultinject.NodeRestart, Node: 1},
		{At: 25 * time.Second, Kind: faultinject.SlowNode, Node: 3, Factor: 1},
	}}
}

// runMixedScenario builds a fresh 6-node cluster, stages a corpus, installs
// the mixed plan, runs wordcount through it, settles, and returns the three
// byte-comparable fingerprints: fault log, final fsck, job report.
func runMixedScenario(t *testing.T) (faultLog, fsckStr, reportStr string) {
	t.Helper()
	c, err := core.New(core.Options{
		Nodes: 6, Racks: 2, Seed: 11,
		HDFS: hdfs.Config{
			BlockSize:           8 << 10,
			Replication:         3,
			HeartbeatInterval:   time.Second,
			HeartbeatExpiry:     5 * time.Second,
			ReplMonitorInterval: 2 * time.Second,
		},
		MR: mrcluster.Config{HeartbeatInterval: time.Second, TrackerExpiry: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 800, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	plan := mixedPlan()
	in, err := faultinject.New(faultinject.Target{Engine: c.Engine, DFS: c.DFS, MR: c.MR}, plan)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Engine.Now()
	in.Install()
	rep, err := c.Run(jobs.WordCount("/in", "/out", false))
	if err != nil {
		t.Fatalf("wordcount under mixed plan: %v", err)
	}
	// The job may outrun the plan; play out the remaining faults before
	// judging the end state.
	c.Engine.RunUntil(base + plan.Horizon() + time.Second)
	if err := invariant.CountersConsistent(rep); err != nil {
		t.Fatal(err)
	}
	fsck, err := invariant.FsckSettled(c.DFS, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return in.LogString(), fsck.String(), rep.String()
}

// TestMixedPlanDeterministicReplay is the subsystem's acceptance check:
// two full HDFS+MapReduce runs of the same seed and plan produce
// byte-identical fault event logs, final fsck reports and job reports.
func TestMixedPlanDeterministicReplay(t *testing.T) {
	log1, fsck1, rep1 := runMixedScenario(t)
	log2, fsck2, rep2 := runMixedScenario(t)
	if log1 != log2 {
		t.Fatalf("fault logs differ across replays:\n--- run A ---\n%s--- run B ---\n%s", log1, log2)
	}
	if fsck1 != fsck2 {
		t.Fatalf("fsck reports differ across replays:\n--- run A ---\n%s--- run B ---\n%s", fsck1, fsck2)
	}
	if rep1 != rep2 {
		t.Fatalf("job reports differ across replays:\n--- run A ---\n%s--- run B ---\n%s", rep1, rep2)
	}
	// The log must show every fault actually fired.
	for _, kind := range []faultinject.Kind{
		faultinject.NodeCrash, faultinject.TaskError, faultinject.DiskCorruptBlock,
		faultinject.SlowNode, faultinject.HeartbeatDrop, faultinject.NetPartition,
		faultinject.NetHeal, faultinject.NodeRestart,
	} {
		if !strings.Contains(log1, string(kind)) {
			t.Fatalf("fault log missing %s:\n%s", kind, log1)
		}
	}
}

// TestScenarioSweepHoldsInvariants drives the scenario runner across a
// seed sweep of random safe plans: wordcount must complete and the
// filesystem settle clean for every seed.
func TestScenarioSweepHoldsInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is a tier-2 chaos test")
	}
	sc := faultinject.Scenario{
		Name: "wordcount-under-random-faults",
		Build: func(seed int64) (faultinject.Target, error) {
			c, err := core.New(core.Options{
				Nodes: 6, Racks: 2, Seed: seed,
				HDFS: hdfs.Config{
					BlockSize:           8 << 10,
					Replication:         3,
					HeartbeatInterval:   time.Second,
					HeartbeatExpiry:     5 * time.Second,
					ReplMonitorInterval: 2 * time.Second,
				},
				MR: mrcluster.Config{HeartbeatInterval: time.Second, TrackerExpiry: 5 * time.Second},
			})
			if err != nil {
				return faultinject.Target{}, err
			}
			if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 3}); err != nil {
				return faultinject.Target{}, err
			}
			return faultinject.Target{Engine: c.Engine, DFS: c.DFS, MR: c.MR}, nil
		},
		Plan: func(seed int64) faultinject.Plan {
			return faultinject.RandomPlan(seed, faultinject.PlanOpts{
				Nodes: 6, Racks: 2, Events: 8, MaxConcurrentDown: 2,
				Horizon: 45 * time.Second,
			})
		},
		Drive: func(tgt faultinject.Target, in *faultinject.Injector) error {
			rep, err := tgt.MR.Run(jobs.WordCount("/in", "/out", false))
			if err != nil {
				return err
			}
			if err := invariant.CountersConsistent(rep); err != nil {
				return err
			}
			_, err = invariant.FsckSettled(tgt.DFS, 5*time.Minute)
			return err
		},
	}
	for seed := int64(1); seed <= 5; seed++ {
		if err := sc.Run(seed).Err; err != nil {
			t.Fatal(err)
		}
	}
}
