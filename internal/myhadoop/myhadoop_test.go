package myhadoop_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/myhadoop"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func newPBS(t *testing.T, nodes int, cleanup time.Duration) (*sim.Engine, *myhadoop.PBS) {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(nodes, 1))
	return eng, myhadoop.NewPBS(eng, topo, cleanup)
}

func TestReserveProvisionRunRelease(t *testing.T) {
	eng, pbs := newPBS(t, 16, 15*time.Minute)
	res, err := pbs.Submit("alice", 8, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != myhadoop.ResRunning || len(res.Allocated) != 8 {
		t.Fatalf("reservation: state=%v nodes=%v", res.State, res.Allocated)
	}
	run, err := myhadoop.Provision(pbs, res, myhadoop.ProvisionOptions{
		HDFS: hdfs.Config{BlockSize: 16 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The private cluster works end to end.
	client := run.DFS.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(client, "/in/data.txt", []byte("alpha beta alpha\n")); err != nil {
		t.Fatal(err)
	}
	rep, err := run.MR.Run(jobs.WordCount("/in", "/out", false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatal("job failed")
	}
	out, err := mapreduce.ReadOutput(client, "/out")
	if err != nil || !strings.Contains(out, "alpha\t2") {
		t.Fatalf("output %q err=%v", out, err)
	}
	// Clean shutdown releases ports and nodes.
	run.StopDaemons()
	pbs.Release(res)
	if len(pbs.FreeNodes()) != 16 {
		t.Fatalf("free nodes after release = %d", len(pbs.FreeNodes()))
	}
	for _, n := range res.Allocated {
		if len(pbs.Daemons(n)) != 0 {
			t.Fatalf("daemons remain on node %d", n)
		}
	}
	_ = eng
}

func TestGhostDaemonsBlockNextStudent(t *testing.T) {
	_, pbs := newPBS(t, 8, time.Hour)
	// Alice provisions and exits without stopping Hadoop.
	resA, _ := pbs.Submit("alice", 8, 2*time.Hour)
	runA, err := myhadoop.Provision(pbs, resA, myhadoop.ProvisionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runA.ExitWithoutStopping()
	pbs.Release(resA)

	// Bob gets the same nodes immediately (before the cleanup script).
	resB, _ := pbs.Submit("bob", 8, 2*time.Hour)
	if resB.State != myhadoop.ResRunning {
		t.Fatal("bob did not get nodes")
	}
	_, err = myhadoop.Provision(pbs, resB, myhadoop.ProvisionOptions{})
	var ghost *myhadoop.GhostDaemonError
	if !errors.As(err, &ghost) {
		t.Fatalf("want GhostDaemonError, got %v", err)
	}
	if ghost.Owner != "alice" {
		t.Fatalf("ghost owner = %s", ghost.Owner)
	}
}

func TestOwnGhostDaemonsAreKillable(t *testing.T) {
	_, pbs := newPBS(t, 8, time.Hour)
	resA, _ := pbs.Submit("alice", 8, 2*time.Hour)
	runA, err := myhadoop.Provision(pbs, resA, myhadoop.ProvisionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runA.ExitWithoutStopping()
	pbs.Release(resA)
	// Alice comes back: her own orphans are terminated individually.
	resA2, _ := pbs.Submit("alice", 8, 2*time.Hour)
	if _, err := myhadoop.Provision(pbs, resA2, myhadoop.ProvisionOptions{}); err != nil {
		t.Fatalf("alice blocked by her own ghosts: %v", err)
	}
}

func TestCleanupScriptFreesPorts(t *testing.T) {
	eng, pbs := newPBS(t, 8, 15*time.Minute)
	resA, _ := pbs.Submit("alice", 8, 2*time.Hour)
	runA, err := myhadoop.Provision(pbs, resA, myhadoop.ProvisionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runA.ExitWithoutStopping()
	pbs.Release(resA)
	// "Otherwise, the student would have to wait 15 minutes for the
	// scheduler to clean up these daemons."
	eng.Advance(16 * time.Minute)
	if pbs.OrphansKilled == 0 {
		t.Fatal("cleanup script killed nothing")
	}
	resB, _ := pbs.Submit("bob", 8, 2*time.Hour)
	if _, err := myhadoop.Provision(pbs, resB, myhadoop.ProvisionOptions{}); err != nil {
		t.Fatalf("bob still blocked after cleanup: %v", err)
	}
}

func TestWalltimeEvictionQueuesNext(t *testing.T) {
	eng, pbs := newPBS(t, 8, time.Hour)
	resA, _ := pbs.Submit("alice", 8, 30*time.Minute)
	if resA.State != myhadoop.ResRunning {
		t.Fatal("alice not running")
	}
	resB, _ := pbs.Submit("bob", 8, time.Hour)
	if resB.State != myhadoop.ResQueued {
		t.Fatal("bob should queue while alice holds all nodes")
	}
	eng.Advance(31 * time.Minute)
	if resA.State != myhadoop.ResDone {
		t.Fatal("alice not evicted at walltime")
	}
	if resB.State != myhadoop.ResRunning {
		t.Fatal("bob did not start after eviction")
	}
}

func TestOversizedReservationRejected(t *testing.T) {
	_, pbs := newPBS(t, 4, time.Hour)
	if _, err := pbs.Submit("greedy", 5, time.Hour); err == nil {
		t.Fatal("reservation larger than the machine accepted")
	}
}

func TestSubmissionScriptRender(t *testing.T) {
	s := myhadoop.DefaultScript("carol", 8, 2*time.Hour)
	text := s.Render()
	for _, want := range []string{
		"#PBS -l select=8:ncpus=16:mem=64gb",
		"walltime=02:00:00",
		"myhadoop-configure.sh",
		"hadoop fsck /",
		"hadoop fs -copyToLocal",
		"stop-all.sh",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("script missing %q:\n%s", want, text)
		}
	}
}

func TestConcurrentStudentClusters(t *testing.T) {
	// Two students provision disjoint clusters simultaneously; each sees
	// only their own files.
	_, pbs := newPBS(t, 16, time.Hour)
	resA, _ := pbs.Submit("alice", 8, time.Hour)
	resB, _ := pbs.Submit("bob", 8, time.Hour)
	runA, err := myhadoop.Provision(pbs, resA, myhadoop.ProvisionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runB, err := myhadoop.Provision(pbs, resB, myhadoop.ProvisionOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ca := runA.DFS.Client(hdfs.GatewayNode)
	cb := runB.DFS.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(ca, "/private.txt", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(cb, "/private.txt") {
		t.Fatal("bob can see alice's file: clusters are not isolated")
	}
}

func TestInteractiveScriptInsertsSleep(t *testing.T) {
	s := myhadoop.DefaultScript("dana", 4, time.Hour).Interactive(30 * time.Minute)
	text := s.Render()
	sleepAt := strings.Index(text, "sleep 1800")
	stopAt := strings.Index(text, "stop-all.sh")
	if sleepAt < 0 {
		t.Fatalf("no sleep inserted:\n%s", text)
	}
	if stopAt < 0 || sleepAt > stopAt {
		t.Fatalf("sleep must precede stop-all.sh:\n%s", text)
	}
	// Original script untouched (value semantics).
	if strings.Contains(myhadoop.DefaultScript("dana", 4, time.Hour).Render(), "sleep") {
		t.Fatal("DefaultScript mutated")
	}
}

func TestPreemptionOrphansDaemons(t *testing.T) {
	eng, pbs := newPBS(t, 8, 15*time.Minute)
	res, _ := pbs.Submit("earlybird", 4, 2*time.Hour)
	if _, err := myhadoop.Provision(pbs, res, myhadoop.ProvisionOptions{}); err != nil {
		t.Fatal(err)
	}
	eng.Advance(time.Minute)
	res2, _ := pbs.Submit("latecomer", 4, 2*time.Hour)
	run2, err := myhadoop.Provision(pbs, res2, myhadoop.ProvisionOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = run2
	// A research job needs 6 nodes: the newest reservation is evicted
	// first, then the older one.
	evicted := pbs.Preempt(6)
	if len(evicted) != 2 {
		t.Fatalf("evicted %d reservations, want 2", len(evicted))
	}
	if evicted[0].User != "latecomer" {
		t.Fatalf("newest reservation should go first, got %s", evicted[0].User)
	}
	if len(pbs.FreeNodes()) < 6 {
		t.Fatalf("free nodes = %d", len(pbs.FreeNodes()))
	}
	// The evicted students' daemons are now ghosts on free nodes; the
	// cleanup cycle reaps them.
	eng.Advance(16 * time.Minute)
	if pbs.OrphansKilled == 0 {
		t.Fatal("preempted daemons never cleaned up")
	}
}

// TestStoppedDaemonsStopTicking: removing a daemon's port binding ends the
// process behind it. An 8-node session runs 27 tickers on the shared PBS
// engine (per node a DataNode heartbeat, a block report and a TaskTracker
// heartbeat; the NameNode's two monitors; the JobTracker's expiry check);
// after stop-all.sh, after the clean-up cycle reaps a ghost, and after a
// student kills their own ghosts, none of that session's is left — the
// engine is back to the scheduler's own clean-up cycle.
func TestStoppedDaemonsStopTicking(t *testing.T) {
	const session = 8*3 + 2 + 1
	eng, pbs := newPBS(t, 8, 15*time.Minute)
	idle := eng.Stats().Tickers
	if idle != 1 {
		t.Fatalf("a bare PBS runs %d tickers, want its clean-up cycle only", idle)
	}
	provision := func(user string) (*myhadoop.Reservation, *myhadoop.HadoopRun) {
		t.Helper()
		res, err := pbs.Submit(user, 8, 2*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		run, err := myhadoop.Provision(pbs, res, myhadoop.ProvisionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng.Advance(time.Minute) // DataNodes register once their start-up scan is over
		return res, run
	}
	expect := func(when string, want int) {
		t.Helper()
		if got := eng.Stats().Tickers; got != want {
			t.Fatalf("%s: %d live tickers, want %d", when, got, want)
		}
	}

	res, run := provision("alice")
	expect("session running", idle+session)
	run.StopDaemons()
	pbs.Release(res)
	expect("after StopDaemons", idle)

	// A ghost goes on ticking — that is what makes it one — until the
	// clean-up cycle kills it.
	res, run = provision("bob")
	run.ExitWithoutStopping()
	pbs.Release(res)
	eng.Advance(time.Minute)
	expect("ghost before the clean-up cycle", idle+session)
	eng.Advance(15 * time.Minute)
	if pbs.OrphansKilled != 8*2+2 {
		t.Fatalf("clean-up killed %d daemons, want %d", pbs.OrphansKilled, 8*2+2)
	}
	expect("after the clean-up cycle", idle)

	// A student's own ghosts die as the new session binds over them.
	res, run = provision("carol")
	run.ExitWithoutStopping()
	pbs.Release(res)
	res, run = provision("carol")
	expect("own ghosts killed by the new session", idle+session)
	run.StopDaemons()
	pbs.Release(res)
	expect("at the end", idle)
	if eng.Pending() != idle {
		t.Fatalf("%d events pending on the engine, want the clean-up cycle's one", eng.Pending())
	}
}
