package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const testSeed = 1234

func TestRegistryComplete(t *testing.T) {
	want := []string{"FIG1", "FIG2", "T1", "T2", "T3", "T4", "T5",
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}
	specs := Registry()
	if len(specs) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(specs), len(want))
	}
	for i, id := range want {
		if specs[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, specs[i].ID, id)
		}
	}
	if _, ok := Lookup("e4"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
}

func TestFig1LocalityWinsAndHPCSaturates(t *testing.T) {
	r, err := Fig1(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*Fig1Result)
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Hadoop layout keeps scaling 1 -> 16 nodes.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.HadoopMakespan >= first.HadoopMakespan {
		t.Fatalf("hadoop layout did not scale: %v -> %v", first.HadoopMakespan, last.HadoopMakespan)
	}
	// At scale, the shared-storage layout is clearly slower.
	if last.Slowdown < 1.5 {
		t.Fatalf("HPC layout should fall behind at 16 nodes, slowdown=%.2f\n%s", last.Slowdown, r)
	}
	// And the gap widens with node count (storage saturation).
	if last.Slowdown <= first.Slowdown {
		t.Fatalf("slowdown should grow with nodes: %.2f -> %.2f", first.Slowdown, last.Slowdown)
	}
	if last.LocalityPercent < 80 {
		t.Fatalf("hadoop layout locality = %.0f%%", last.LocalityPercent)
	}
}

func TestFig2RendersComponents(t *testing.T) {
	r, err := Fig2(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[NameNode]", "[JobTracker]", "blk_", "file01.txt", "TaskTracker[up]"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("FIG2 missing %q", want)
		}
	}
}

func TestTablesRender(t *testing.T) {
	for _, id := range []string{"T1", "T2", "T3", "T4", "T5"} {
		spec, _ := Lookup(id)
		r, err := spec.Run(testSeed)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r.String()) < 80 {
			t.Fatalf("%s output too small:\n%s", id, r)
		}
	}
}

// TestRenderTables: the survey tables render their published rows, their
// scales and the cohort sizes.
func TestRenderTables(t *testing.T) {
	for _, tc := range []struct {
		table func(int64) (*Result, error)
		wants []string
	}{
		{Table1, []string{"Hadoop MapReduce", "0.03", "4.53", "Level of Proficiency"}},
		{Table2, []string{"Set up Hadoop cluster", "2.50"}},
		{Table3, []string{"In-class lab"}},
		{Table4, []string{"Junior", "14", "of 39 enrolled"}},
	} {
		r, err := tc.table(testSeed)
		if err != nil {
			t.Fatal(err)
		}
		s := r.String()
		for _, want := range tc.wants {
			if !strings.Contains(s, want) {
				t.Fatalf("%s missing %q:\n%s", r.ID, want, s)
			}
		}
	}
}

func TestE1MeltdownShape(t *testing.T) {
	r, err := E1Meltdown(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*MeltdownResult)
	if res.Students != 35 {
		t.Fatalf("students = %d", res.Students)
	}
	// Paper: "only about one third of the students ... were able to
	// complete the second assignment". Accept a band around 1/3.
	if f := res.CompletedFraction(); f < 0.15 || f > 0.6 {
		t.Fatalf("completed fraction = %.2f, want roughly one third\n%s", f, r)
	}
	if res.DeadTaskTrackers == 0 || res.DeadDataNodes == 0 {
		t.Fatalf("no daemons died in the meltdown\n%s", r)
	}
	if res.UnderReplicatedAtDeadline == 0 && res.MissingAtDeadline == 0 {
		t.Fatalf("no replication damage at deadline\n%s", r)
	}
	// Paper: "at least fifteen minutes" for data-integrity checks.
	if res.RecoveryTime < 10*time.Minute || res.RecoveryTime > 30*time.Minute {
		t.Fatalf("recovery time = %v, want ≈15 minutes", res.RecoveryTime)
	}
	if !res.HealthyAfterRestart {
		t.Fatal("cluster did not heal after full restart")
	}
}

func TestE2CombinerTradeoffShape(t *testing.T) {
	r, err := E2Combiner(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E2Result)
	if res.Combiner.ShuffleBytes*5 > res.Plain.ShuffleBytes {
		t.Fatalf("combiner shuffle not ≥5x smaller: %d vs %d",
			res.Combiner.ShuffleBytes, res.Plain.ShuffleBytes)
	}
	if res.Combiner.MapPhase <= res.Plain.MapPhase {
		t.Fatalf("combiner map phase should be longer: %v vs %v",
			res.Combiner.MapPhase, res.Plain.MapPhase)
	}
	if res.Combiner.ReducePhase >= res.Plain.ReducePhase {
		t.Fatalf("combiner reduce phase should shrink: %v vs %v",
			res.Combiner.ReducePhase, res.Plain.ReducePhase)
	}
}

func TestE3AirlineVariantShape(t *testing.T) {
	r, err := E3Airline(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E3Result)
	if !(res.Plain.ShuffleBytes > res.Combiner.ShuffleBytes) {
		t.Fatalf("plain should shuffle most: %d vs %d", res.Plain.ShuffleBytes, res.Combiner.ShuffleBytes)
	}
	if !(res.Combiner.ShuffleBytes >= res.InMapper.ShuffleBytes) {
		t.Fatalf("in-mapper should shuffle least: %d vs %d", res.Combiner.ShuffleBytes, res.InMapper.ShuffleBytes)
	}
	if res.InMapper.MemoryPeak == 0 || res.Plain.MemoryPeak != 0 {
		t.Fatalf("memory trade-off missing: imc=%d plain=%d", res.InMapper.MemoryPeak, res.Plain.MemoryPeak)
	}
	if res.Plain.Makespan <= res.Combiner.Makespan {
		t.Fatalf("plain should be slowest end to end: %v vs %v", res.Plain.Makespan, res.Combiner.Makespan)
	}
}

func TestE4SideDataOrderOfMagnitude(t *testing.T) {
	r, err := E4SideData(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E4Result)
	if res.Ratio < 10 {
		t.Fatalf("naive/cached ratio = %.1f, want ≥10 (\"one order of magnitude\")\n%s", res.Ratio, r)
	}
	if res.Naive.SideOpens <= res.Cached.SideOpens {
		t.Fatal("naive variant should open the side file far more often")
	}
	// Ablation: the DistributedCache removes the repeated HDFS reads
	// (big win over naive) but keeps the repeated parsing CPU (still
	// slower than the cached pattern).
	if res.NaiveDistCache.Makespan >= res.Naive.Makespan {
		t.Fatalf("DistributedCache did not help the naive pattern: %v vs %v",
			res.NaiveDistCache.Makespan, res.Naive.Makespan)
	}
	if res.NaiveDistCache.Makespan <= res.Cached.Makespan {
		t.Fatalf("DistributedCache should not beat the cached pattern: %v vs %v",
			res.NaiveDistCache.Makespan, res.Cached.Makespan)
	}
}

func TestE5SpeedupAndEquivalence(t *testing.T) {
	r, err := E5SerialVsCluster(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E5Result)
	if !res.SameAnswer {
		t.Fatal("cluster run changed the answer")
	}
	if res.Speedup < 2 {
		t.Fatalf("cluster speedup only %.2fx", res.Speedup)
	}
}

func TestE6CleanupIntervalMonotone(t *testing.T) {
	r, err := E6GhostDaemons(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E6Result)
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.Cleanup != time.Minute || last.Cleanup != 30*time.Minute {
		t.Fatalf("sweep bounds: %v .. %v", first.Cleanup, last.Cleanup)
	}
	if !(first.FailureRate <= last.FailureRate) {
		t.Fatalf("failure rate should not decrease with slower cleanup: %.2f .. %.2f\n%s",
			first.FailureRate, last.FailureRate, r)
	}
	if last.GhostFailures == 0 {
		t.Fatalf("30-minute cleanup produced no ghost failures\n%s", r)
	}
}

func TestE7StagingAnchors(t *testing.T) {
	r, err := E7Staging(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E7Result)
	byName := map[string]time.Duration{}
	for _, p := range res.Points {
		byName[p.Dataset] = p.Staging
	}
	if g := byName["Google cluster trace"]; g < time.Hour {
		t.Fatalf("171 GB staging = %v, paper says over an hour", g)
	}
	if y := byName["Yahoo! Music (assignment 2)"]; y >= 5*time.Minute {
		t.Fatalf("10 GB staging = %v, paper says under five minutes", y)
	}
	// Monotone in size.
	var prev time.Duration
	for _, p := range res.Points {
		if p.Staging < prev {
			t.Fatal("staging time not monotone in size")
		}
		prev = p.Staging
	}
}

func TestStagingTimeMatchesRealClientSmall(t *testing.T) {
	// Cross-check the analytic formula against the real client's meter on
	// a small file.
	cm := cluster.DefaultCostModel()
	want := StagingTime(4<<20, 1<<20, cm)
	got := realStagingCost(t, 4<<20, 1<<20)
	ratio := float64(got) / float64(want)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("analytic %v vs real client %v (ratio %.2f)", want, got, ratio)
	}
}

func TestE8TranscriptShowsRecovery(t *testing.T) {
	r, err := E8FsckRecovery(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E8Result)
	if res.UnderReplicatedAfterKill == 0 {
		t.Fatalf("datanode loss caused no under-replication\n%s", res.Transcript)
	}
	if !res.HealthyAfterRecovery {
		t.Fatalf("cluster did not recover\n%s", res.Transcript)
	}
	for _, want := range []string{"Under-replicated blocks", "is HEALTHY", "blk_", "Replication 2 set"} {
		if !strings.Contains(res.Transcript, want) {
			t.Fatalf("transcript missing %q", want)
		}
	}
}

func TestE9ScalabilityShape(t *testing.T) {
	r, err := E9Scalability(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E9Result)
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	last := res.Points[len(res.Points)-1]
	if last.Speedup < 3 {
		t.Fatalf("16-node speedup = %.2fx, want ≥3x\n%s", last.Speedup, r)
	}
	// Monotone non-decreasing speedup.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Speedup < res.Points[i-1].Speedup*0.9 {
			t.Fatalf("speedup regressed at %d nodes\n%s", res.Points[i].Nodes, r)
		}
	}
	if res.SpeculationGain <= 1 {
		t.Fatalf("speculation gain = %.2f, want >1\n%s", res.SpeculationGain, r)
	}
}

func TestE10FormatShape(t *testing.T) {
	r, err := E10Formats(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E10Result)
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	text, gz, seq := res.e10Format("text"), res.e10Format("gz"), res.e10Format("seq-gzip")
	if gz.MapTasks != 1 {
		t.Fatalf("gz corpus scheduled %d maps, want exactly 1\n%s", gz.MapTasks, r)
	}
	if seq.MapTasks < 4 {
		t.Fatalf("seq-gzip corpus scheduled %d maps, want ≥4\n%s", seq.MapTasks, r)
	}
	if gz.FileBytes >= text.FileBytes || seq.FileBytes >= text.FileBytes {
		t.Fatalf("compression did not shrink storage\n%s", r)
	}
	if seq.BytesRead >= text.BytesRead {
		t.Fatalf("seq read %d bytes, text %d: compression should cut disk reads\n%s",
			seq.BytesRead, text.BytesRead, r)
	}
	if seq.Makespan >= gz.Makespan {
		t.Fatalf("seq makespan %v not better than single-map gz %v\n%s", seq.Makespan, gz.Makespan, r)
	}
	if res.ShuffleWireBytes >= res.ShuffleRawBytes {
		t.Fatalf("shuffle compression grew the wire: %d -> %d\n%s",
			res.ShuffleRawBytes, res.ShuffleWireBytes, r)
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note here"},
	}
	s := r.String()
	for _, want := range []string{"=== X: demo ===", "a    bbbb", "333", "note: note here"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

// realStagingCost stages size real bytes through the HDFS client and
// returns the metered write time.
func realStagingCost(t *testing.T, size, blockSize int64) time.Duration {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(8, 1))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Seed: 1, Config: hdfs.Config{BlockSize: blockSize}})
	if err != nil {
		t.Fatal(err)
	}
	c := dfs.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(c, "/f", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	return c.Meter.WriteTime
}

func TestE9PlacementAblation(t *testing.T) {
	r, err := E9Scalability(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Raw.(*E9Result)
	// The default policy guarantees every block spans two racks; random
	// placement confines a sizeable fraction to one rack and loses those
	// blocks when that rack fails.
	if res.RackRedundantDefaultPct != 100 {
		t.Fatalf("default policy rack-redundant = %.0f%%, want 100%%", res.RackRedundantDefaultPct)
	}
	if res.RackRedundantRandomPct >= 95 {
		t.Fatalf("random placement rack-redundant = %.0f%%, suspiciously high", res.RackRedundantRandomPct)
	}
	if res.MissingAfterRackLossDefault != 0 {
		t.Fatalf("default policy lost %d blocks to a rack failure", res.MissingAfterRackLossDefault)
	}
	if res.MissingAfterRackLossRandom == 0 {
		t.Fatal("random placement should lose blocks to a rack failure")
	}
}

func TestE1RobustAcrossSeeds(t *testing.T) {
	// The meltdown's qualitative shape must not depend on one lucky seed:
	// daemons die, replication is damaged, and completion stays well below
	// 100% for any seed.
	for _, seed := range []int64{1, 99, 2026} {
		r, err := E1Meltdown(seed)
		if err != nil {
			t.Fatal(err)
		}
		res := r.Raw.(*MeltdownResult)
		if res.DeadDataNodes == 0 {
			t.Fatalf("seed %d: no DataNodes died", seed)
		}
		if f := res.CompletedFraction(); f > 0.8 {
			t.Fatalf("seed %d: completion %.2f — meltdown did not bite", seed, f)
		}
		if res.RecoveryTime < 5*time.Minute {
			t.Fatalf("seed %d: recovery only %v", seed, res.RecoveryTime)
		}
	}
}
