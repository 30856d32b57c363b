package invariant_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject/invariant"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/sim"
)

func newDFS(t *testing.T, nodes int) *hdfs.MiniDFS {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(nodes, 1))
	d, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Seed: 21, Config: hdfs.Config{
		BlockSize:           2 << 10,
		Replication:         3,
		HeartbeatInterval:   time.Second,
		HeartbeatExpiry:     5 * time.Second,
		ReplMonitorInterval: 2 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteTrackerRoundTripAndLossDetection(t *testing.T) {
	d := newDFS(t, 4)
	c := d.Client(hdfs.GatewayNode)
	w := invariant.NewWriteTracker()
	for i := 0; i < 3; i++ {
		if err := w.Put(c, fmt.Sprintf("/f%d", i), []byte(strings.Repeat("x", 3000+i))); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("tracked %d files, want 3", w.Len())
	}
	if err := w.Check(c); err != nil {
		t.Fatalf("healthy cluster failed the check: %v", err)
	}
	// Losing every replica must be detected as a lost acked write.
	for _, dn := range d.DataNodes() {
		dn.WipeAndKill()
	}
	if err := w.Check(c); err == nil {
		t.Fatal("check passed with all replicas wiped")
	}
}

func TestFsckSettledHealsAndTimesOut(t *testing.T) {
	d := newDFS(t, 4)
	c := d.Client(hdfs.GatewayNode)
	w := invariant.NewWriteTracker()
	if err := w.Put(c, "/data", []byte(strings.Repeat("y", 8<<10))); err != nil {
		t.Fatal(err)
	}
	if err := invariant.FsckHealthy(d); err != nil {
		t.Fatal(err)
	}
	// Kill one node: the monitor re-replicates onto the remaining three.
	d.DataNode(0).Kill()
	if _, err := invariant.FsckSettled(d, 2*time.Minute); err != nil {
		t.Fatalf("did not settle after single kill: %v", err)
	}
	// Kill a second: only two nodes left for replication 3 — the deficit
	// is unfixable, so settling must time out with under-replication.
	d.DataNode(1).Kill()
	if _, err := invariant.FsckSettled(d, 30*time.Second); err == nil {
		t.Fatal("settled with only 2 live nodes and replication 3")
	}
}

func goodReport() *mrcluster.Report {
	ctr := mapreduce.NewCounters() // every counter starts at zero
	ctr.Inc(mapreduce.CtrLaunchedMaps, 5)
	ctr.Inc(mapreduce.CtrLaunchedReduces, 2)
	ctr.Inc(mapreduce.CtrDataLocalMaps, 3)
	ctr.Inc(mapreduce.CtrRackLocalMaps, 1)
	ctr.Inc(mapreduce.CtrRemoteMaps, 1)
	ctr.Inc(mapreduce.CtrSpeculativeLaunch, 1)
	ctr.Inc(mapreduce.CtrSpeculativeWon, 1)
	ctr.Inc(mapreduce.CtrFailedMaps, 1)
	ctr.Inc(mapreduce.CtrTaskRetries, 1)
	return &mrcluster.Report{MapTasks: 4, ReduceTasks: 2, Counters: ctr}
}

// TestCountersConsistent breaks each of CountersConsistent's six
// relations alone and checks that the error names that relation, so
// disabling any one check fails the test. The "launched maps" breaker
// runs on a Failed report (no locality floor) and lowers data-local
// maps with launched maps, so locality never exceeds launched.
func TestCountersConsistent(t *testing.T) {
	if err := invariant.CountersConsistent(goodReport()); err != nil {
		t.Fatalf("consistent report rejected: %v", err)
	}
	breakers := []struct {
		want  string
		mutil func(*mrcluster.Report)
	}{
		{"launched maps 3 < map tasks 4", func(r *mrcluster.Report) {
			r.Failed = true
			r.Counters.Inc(mapreduce.CtrLaunchedMaps, 3-5)
			r.Counters.Inc(mapreduce.CtrDataLocalMaps, 1-3)
		}},
		{"launched reduces 1 < reduce tasks 2", func(r *mrcluster.Report) { r.Counters.Inc(mapreduce.CtrLaunchedReduces, 1-2) }},
		{"locality-counted maps 3 < map tasks 4", func(r *mrcluster.Report) { r.Counters.Inc(mapreduce.CtrDataLocalMaps, 1-3) }},
		{"locality-counted maps 11 > launched maps 5", func(r *mrcluster.Report) { r.Counters.Inc(mapreduce.CtrDataLocalMaps, 9-3) }},
		{"speculative wins 2 > speculative launches 1", func(r *mrcluster.Report) { r.Counters.Inc(mapreduce.CtrSpeculativeWon, 2-1) }},
		{"task retries 7 != failed attempts 1", func(r *mrcluster.Report) { r.Counters.Inc(mapreduce.CtrTaskRetries, 7-1) }},
	}
	for _, b := range breakers {
		r := goodReport()
		b.mutil(r)
		if err := invariant.CountersConsistent(r); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: got error %v", b.want, err)
		}
	}
}

func TestOutputsEqual(t *testing.T) {
	if err := invariant.OutputsEqual("a\nb\n", "a\nb\n"); err != nil {
		t.Fatal(err)
	}
	if err := invariant.OutputsEqual("a\nb\n", "a\nc\n"); err == nil {
		t.Fatal("differing outputs not detected")
	}
}
