package mrcluster_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// testRig bundles a DFS + MR cluster with data staged.
type testRig struct {
	eng *sim.Engine
	dfs *hdfs.MiniDFS
	mc  *mrcluster.MRCluster
}

func newRig(t *testing.T, nodes, racks int, dcfg hdfs.Config, mcfg mrcluster.Config) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(nodes, racks))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: dcfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mc := mrcluster.NewMRCluster(dfs, mcfg, 13)
	return &testRig{eng: eng, dfs: dfs, mc: mc}
}

func (r *testRig) stage(t *testing.T, path string, data []byte) {
	t.Helper()
	c := r.dfs.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(c, path, data); err != nil {
		t.Fatal(err)
	}
}

func wordCountJob(in, out string) *mapreduce.Job {
	return &mapreduce.Job{
		Name: "wordcount",
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, off int64, line string, emit mapreduce.Emitter) error {
				for _, w := range strings.Fields(line) {
					if err := emit.Emit(w, mapreduce.Int64(1)); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, emit mapreduce.Emitter) error {
				var sum int64
				if err := values.Each(func(v mapreduce.Value) error {
					sum += int64(v.(mapreduce.Int64))
					return nil
				}); err != nil {
					return err
				}
				return emit.Emit(key, mapreduce.Int64(sum))
			})
		},
		DecodeValue: mapreduce.DecodeInt64,
		InputPaths:  []string{in},
		OutputPath:  out,
	}
}

func corpus(lines int) []byte {
	var b strings.Builder
	words := []string{"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "hadoop", "hdfs"}
	for i := 0; i < lines; i++ {
		for j := 0; j < 8; j++ {
			b.WriteString(words[(i*7+j*3)%len(words)])
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func TestDistributedMatchesSerial(t *testing.T) {
	// The course's central claim: the same job, unchanged, produces the
	// same answer standalone and on the cluster.
	data := corpus(2000)

	local := vfs.NewMemFS()
	if err := vfs.WriteFile(local, "/in/data.txt", data); err != nil {
		t.Fatal(err)
	}
	sj := wordCountJob("/in", "/out")
	sj.NumReducers = 3
	srep, err := (&serial.Runner{FS: local}).Run(sj)
	if err != nil {
		t.Fatal(err)
	}
	serialOut, err := mapreduce.ReadOutput(local, "/out")
	if err != nil {
		t.Fatal(err)
	}

	rig := newRig(t, 8, 2, hdfs.Config{BlockSize: 16 << 10}, mrcluster.Config{})
	rig.stage(t, "/in/data.txt", data)
	dj := wordCountJob("/in", "/out")
	dj.NumReducers = 3
	drep, err := rig.mc.Run(dj)
	if err != nil {
		t.Fatal(err)
	}
	clusterOut, err := mapreduce.ReadOutput(rig.dfs.Client(hdfs.GatewayNode), "/out")
	if err != nil {
		t.Fatal(err)
	}
	if clusterOut != serialOut {
		t.Fatalf("distributed output differs from serial:\nserial %d bytes, cluster %d bytes", len(serialOut), len(clusterOut))
	}
	// Same logical record counts through both runtimes.
	for _, ctr := range []string{mapreduce.CtrMapInputRecords, mapreduce.CtrMapOutputRecords, mapreduce.CtrReduceOutputRecords} {
		if srep.Get(ctr) != drep.Counters.Get(ctr) {
			t.Fatalf("%s: serial=%d cluster=%d", ctr, srep.Get(ctr), drep.Counters.Get(ctr))
		}
	}
	if drep.MapTasks < 2 {
		t.Fatalf("expected multiple map tasks, got %d", drep.MapTasks)
	}
	if !vfs.Exists(rig.dfs.Client(hdfs.GatewayNode), "/out/_SUCCESS") {
		t.Fatal("_SUCCESS missing")
	}
	if vfs.Exists(rig.dfs.Client(hdfs.GatewayNode), "/out/_temporary") {
		t.Fatal("_temporary not cleaned up")
	}
}

func TestDataLocalScheduling(t *testing.T) {
	rig := newRig(t, 8, 2, hdfs.Config{BlockSize: 32 << 10, Replication: 3}, mrcluster.Config{})
	rig.stage(t, "/in/data.txt", corpus(5000))
	rep, err := rig.mc.Run(wordCountJob("/in", "/out"))
	if err != nil {
		t.Fatal(err)
	}
	if f := rep.LocalityFraction(); f < 0.9 {
		t.Fatalf("locality fraction = %.2f, want >= 0.9 with 3x replication on 8 nodes\n%s", f, rep)
	}
	if rep.Counters.Get(mapreduce.CtrHDFSBytesRead) == 0 {
		t.Fatal("no HDFS bytes metered")
	}
}

func TestCombinerCutsShuffle(t *testing.T) {
	data := corpus(4000)
	run := func(withCombiner bool) *mrcluster.Report {
		rig := newRig(t, 4, 1, hdfs.Config{BlockSize: 32 << 10}, mrcluster.Config{})
		rig.stage(t, "/in/data.txt", data)
		job := wordCountJob("/in", "/out")
		if withCombiner {
			job.NewCombiner = job.NewReducer
		}
		rep, err := rig.mc.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(false)
	comb := run(true)
	if comb.ShuffleBytes() >= plain.ShuffleBytes() {
		t.Fatalf("combiner did not cut shuffle: %d vs %d", comb.ShuffleBytes(), plain.ShuffleBytes())
	}
	if comb.ShuffleBytes() > plain.ShuffleBytes()/10 {
		t.Fatalf("tiny key space should shrink shuffle >10x: %d vs %d", comb.ShuffleBytes(), plain.ShuffleBytes())
	}
	// Same answers either way.
	if plain.Counters.Get(mapreduce.CtrReduceOutputRecords) != comb.Counters.Get(mapreduce.CtrReduceOutputRecords) {
		t.Fatal("combiner changed the number of result records")
	}
}

func TestTaskTrackerCrashMidJobRecovers(t *testing.T) {
	rig := newRig(t, 6, 1, hdfs.Config{BlockSize: 16 << 10, Replication: 3},
		mrcluster.Config{HeartbeatInterval: time.Second, TrackerExpiry: 5 * time.Second})
	data := corpus(20000)
	rig.stage(t, "/in/data.txt", data)
	h, err := rig.mc.Submit(wordCountJob("/in", "/out"))
	if err != nil {
		t.Fatal(err)
	}
	// Let some maps finish, then crash a tracker holding outputs while
	// the job is still running.
	rig.eng.Advance(4 * time.Second)
	if h.Done() {
		t.Fatal("job finished too early for the crash to matter")
	}
	rig.mc.KillTaskTracker(2)
	guard := 0
	for !h.Done() {
		if !rig.eng.Step() {
			t.Fatal("simulation stalled")
		}
		if guard++; guard > 10_000_000 {
			t.Fatal("job did not finish")
		}
	}
	if h.Err() != nil {
		t.Fatalf("job failed after tracker crash: %v", h.Err())
	}
	rep := h.Report()
	if rep.Counters.Get(mapreduce.CtrKilledTaskAttempts) == 0 &&
		rep.Counters.Get(mapreduce.CtrLaunchedMaps) <= int64(rep.MapTasks) {
		t.Fatalf("crash left no trace in counters:\n%s", rep)
	}
	// Maps re-run after the crash: the summary's locality line must still
	// agree with itself, its percentage being its own two numbers' ratio.
	var local, runs, pct int
	_, locLine, _ := strings.Cut(rep.String(), "Data-local maps=")
	if _, err := fmt.Sscanf(locLine, "%d/%d (%d%%)", &local, &runs, &pct); err != nil || runs == 0 {
		t.Fatalf("no locality line in the summary (%v):\n%s", err, rep)
	}
	if want := int(100*float64(local)/float64(runs) + 0.5); pct != want {
		t.Fatalf("summary says Data-local maps=%d/%d (%d%%); %d/%d is %d%%", local, runs, pct, local, runs, want)
	}
	// Results still exact.
	out, err := mapreduce.ReadOutput(rig.dfs.Client(hdfs.GatewayNode), "/out")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hadoop\t") {
		t.Fatalf("output incomplete:\n%.200s", out)
	}
}

func TestFaultyJobFailsAfterMaxAttempts(t *testing.T) {
	rig := newRig(t, 4, 1, hdfs.Config{BlockSize: 64 << 10}, mrcluster.Config{MaxAttempts: 3})
	rig.stage(t, "/in/data.txt", corpus(100))
	rig.mc.InjectTaskFault(mrcluster.TaskFault{JobName: "wordcount", Probability: 1, AfterFraction: 0.5})
	_, err := rig.mc.Run(wordCountJob("/in", "/out"))
	if err == nil {
		t.Fatal("always-faulty job succeeded")
	}
	if !strings.Contains(err.Error(), "failed 3 times") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCrashingJobKillsDaemons(t *testing.T) {
	// The paper's meltdown mechanism: a leaky job crashes the TaskTracker
	// AND the co-located DataNode, leaving blocks under-replicated.
	rig := newRig(t, 8, 1, hdfs.Config{BlockSize: 64 << 10, Replication: 3,
		HeartbeatInterval: time.Second, HeartbeatExpiry: 5 * time.Second},
		mrcluster.Config{MaxAttempts: 4, HeartbeatInterval: time.Second, TrackerExpiry: 5 * time.Second})
	rig.stage(t, "/in/data.txt", corpus(500))
	rig.mc.InjectTaskFault(mrcluster.TaskFault{JobName: "wordcount", Probability: 1, AfterFraction: 0.9, CrashDaemons: true})
	rep, err := rig.mc.Run(wordCountJob("/in", "/out"))
	if err == nil {
		t.Fatal("daemon-crashing job succeeded")
	}
	assertLifecycleDigest(t, "crashing-job-kills-daemons", rig, rep.JobID, "")
	deadTT := 0
	for _, tt := range rig.mc.TaskTrackers() {
		if !tt.Alive() {
			deadTT++
		}
	}
	if deadTT == 0 {
		t.Fatal("no TaskTrackers died")
	}
	deadDN := 0
	for _, dn := range rig.dfs.DataNodes() {
		if !dn.Alive() {
			deadDN++
		}
	}
	if deadDN == 0 {
		t.Fatal("no DataNodes died")
	}
}

func TestSpeculativeExecutionBeatsStraggler(t *testing.T) {
	data := corpus(4000)
	run := func(spec bool) *mrcluster.Report {
		eng := sim.NewEngine()
		topo := cluster.NewTopology(cluster.PaperNodeConfig(6, 1))
		dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: hdfs.Config{BlockSize: 16 << 10}, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		mc := mrcluster.NewMRCluster(dfs, mrcluster.Config{
			Speculative:  spec,
			NodeSlowdown: map[cluster.NodeID]float64{3: 8.0},
		}, 13)
		c := dfs.Client(hdfs.GatewayNode)
		if err := vfs.WriteFile(c, "/in/data.txt", data); err != nil {
			t.Fatal(err)
		}
		rep, err := mc.Run(wordCountJob("/in", "/out"))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	without := run(false)
	with := run(true)
	if with.Makespan() >= without.Makespan() {
		t.Fatalf("speculation did not help: with=%v without=%v", with.Makespan(), without.Makespan())
	}
	if with.Counters.Get(mapreduce.CtrSpeculativeLaunch) == 0 {
		t.Fatal("no speculative attempts launched")
	}
}

func TestOutputExistsRefused(t *testing.T) {
	rig := newRig(t, 4, 1, hdfs.Config{}, mrcluster.Config{})
	rig.stage(t, "/in/data.txt", corpus(10))
	rig.stage(t, "/out/old", []byte("x"))
	_, err := rig.mc.Submit(wordCountJob("/in", "/out"))
	if !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("want ErrExist, got %v", err)
	}
}

func TestNoInputRefused(t *testing.T) {
	rig := newRig(t, 4, 1, hdfs.Config{}, mrcluster.Config{})
	if err := rig.dfs.Client(hdfs.GatewayNode).Mkdir("/in"); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.mc.Submit(wordCountJob("/in", "/out")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestClusterSpeedup(t *testing.T) {
	// More nodes → shorter modelled makespan for the same data.
	data := corpus(20000)
	mk := func(nodes int) time.Duration {
		eng := sim.NewEngine()
		topo := cluster.NewTopology(cluster.PaperNodeConfig(nodes, 1))
		dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: hdfs.Config{BlockSize: 64 << 10}, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		mc := mrcluster.NewMRCluster(dfs, mrcluster.Config{}, 5)
		if err := vfs.WriteFile(dfs.Client(hdfs.GatewayNode), "/in/data.txt", data); err != nil {
			t.Fatal(err)
		}
		rep, err := mc.Run(wordCountJob("/in", "/out"))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan()
	}
	one := mk(1)
	eight := mk(8)
	if eight >= one {
		t.Fatalf("8 nodes (%v) not faster than 1 node (%v)", eight, one)
	}
	speedup := float64(one) / float64(eight)
	if speedup < 2 {
		t.Fatalf("speedup on 8 nodes only %.2fx", speedup)
	}
}

func TestReportPhases(t *testing.T) {
	rig := newRig(t, 4, 1, hdfs.Config{BlockSize: 32 << 10}, mrcluster.Config{})
	rig.stage(t, "/in/data.txt", corpus(1000))
	rep, err := rig.mc.Run(wordCountJob("/in", "/out"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MapPhase() <= 0 || rep.ReducePhase() <= 0 {
		t.Fatalf("phases: map=%v reduce=%v", rep.MapPhase(), rep.ReducePhase())
	}
	if rep.MapPhase()+rep.ReducePhase() != rep.Makespan() {
		t.Fatalf("phases don't sum: %v + %v != %v", rep.MapPhase(), rep.ReducePhase(), rep.Makespan())
	}
	s := rep.String()
	if !strings.Contains(s, "Data-local maps") || !strings.Contains(s, "SHUFFLE_BYTES") {
		t.Fatalf("report missing fields:\n%s", s)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	data := corpus(2000)
	run := func() time.Duration {
		eng := sim.NewEngine()
		topo := cluster.NewTopology(cluster.PaperNodeConfig(8, 2))
		dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: hdfs.Config{BlockSize: 16 << 10}, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		mc := mrcluster.NewMRCluster(dfs, mrcluster.Config{}, 22)
		if err := vfs.WriteFile(dfs.Client(hdfs.GatewayNode), "/in/data.txt", data); err != nil {
			t.Fatal(err)
		}
		rep, err := mc.Run(wordCountJob("/in", "/out"))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different makespan: %v vs %v", a, b)
	}
}

func TestSequentialJobsOnOneCluster(t *testing.T) {
	// Students rerun jobs repeatedly on their myHadoop clusters; the
	// runtime must handle many jobs back to back.
	rig := newRig(t, 4, 1, hdfs.Config{BlockSize: 32 << 10}, mrcluster.Config{})
	rig.stage(t, "/in/data.txt", corpus(500))
	for i := 0; i < 3; i++ {
		job := wordCountJob("/in", fmt.Sprintf("/out%d", i))
		rep, err := rig.mc.Run(job)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if rep.Failed {
			t.Fatalf("job %d reported failure", i)
		}
	}
}

func TestDistributedCacheSameAnswerFewerReads(t *testing.T) {
	// The DistributedCache must be invisible to results and visible in
	// I/O: side files are localised once per tracker instead of read from
	// HDFS by every task.
	run := func(distCache bool) (string, *mrcluster.Report) {
		eng := sim.NewEngine()
		topo := cluster.NewTopology(cluster.PaperNodeConfig(4, 1))
		dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Seed: 31, Config: hdfs.Config{BlockSize: 8 << 10}})
		if err != nil {
			t.Fatal(err)
		}
		mc := mrcluster.NewMRCluster(dfs, mrcluster.Config{DistributedCache: distCache}, 32)
		client := dfs.Client(hdfs.GatewayNode)
		if err := vfs.WriteFile(client, "/side/table.txt", []byte("lookup data\n")); err != nil {
			t.Fatal(err)
		}
		rig := corpus(2000)
		if err := vfs.WriteFile(client, "/in/data.txt", rig); err != nil {
			t.Fatal(err)
		}
		job := wordCountJob("/in", "/out")
		job.SideFiles = []string{"/side/table.txt"}
		base := job.NewMapper
		job.NewMapper = func() mapreduce.Mapper {
			inner := base()
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, off int64, line string, emit mapreduce.Emitter) error {
				if _, err := ctx.ReadSideFile("/side/table.txt"); err != nil {
					return err
				}
				return inner.Map(ctx, off, line, emit)
			})
		}
		rep, err := mc.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		out, err := mapreduce.ReadOutput(client, "/out")
		if err != nil {
			t.Fatal(err)
		}
		return out, rep
	}
	plainOut, plainRep := run(false)
	cacheOut, cacheRep := run(true)
	if plainOut != cacheOut {
		t.Fatal("DistributedCache changed the results")
	}
	if cacheRep.Makespan() >= plainRep.Makespan() {
		t.Fatalf("DistributedCache did not cut modelled time: %v vs %v",
			cacheRep.Makespan(), plainRep.Makespan())
	}
	// Side opens are unchanged (the mapper still reads per record)...
	if cacheRep.Counters.Get(mapreduce.CtrSideFileOpens) != plainRep.Counters.Get(mapreduce.CtrSideFileOpens) {
		t.Fatal("cache changed the observed access pattern")
	}
}

func TestCompressedShuffleCutsWireBytes(t *testing.T) {
	data := corpus(4000) // highly compressible text keys
	run := func(compress bool) *mrcluster.Report {
		rig := newRig(t, 4, 1, hdfs.Config{BlockSize: 32 << 10}, mrcluster.Config{CompressShuffle: compress})
		rig.stage(t, "/in/data.txt", data)
		rep, err := rig.mc.Run(wordCountJob("/in", "/out"))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(false)
	gz := run(true)
	if gz.ShuffleBytes()*2 > plain.ShuffleBytes() {
		t.Fatalf("compression saved too little: %d vs %d", gz.ShuffleBytes(), plain.ShuffleBytes())
	}
	// Results unchanged.
	if plain.Counters.Get(mapreduce.CtrReduceOutputRecords) != gz.Counters.Get(mapreduce.CtrReduceOutputRecords) {
		t.Fatal("compression changed results")
	}
}

func TestConcurrentJobsShareCluster(t *testing.T) {
	// Three students submit at once; every job completes and the answers
	// are independent.
	rig := newRig(t, 6, 1, hdfs.Config{BlockSize: 32 << 10}, mrcluster.Config{})
	rig.stage(t, "/in/data.txt", corpus(3000))
	var handles []*mrcluster.JobHandle
	for i := 0; i < 3; i++ {
		job := wordCountJob("/in", fmt.Sprintf("/out%d", i))
		job.Name = fmt.Sprintf("wc-%d", i)
		h, err := rig.mc.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	guard := 0
	for {
		done := true
		for _, h := range handles {
			if !h.Done() {
				done = false
			}
		}
		if done {
			break
		}
		if !rig.eng.Step() {
			t.Fatal("stalled")
		}
		if guard++; guard > 10_000_000 {
			t.Fatal("jobs did not finish")
		}
	}
	var outs []string
	for i := range handles {
		if handles[i].Err() != nil {
			t.Fatalf("job %d failed: %v", i, handles[i].Err())
		}
		out, err := mapreduce.ReadOutput(rig.dfs.Client(hdfs.GatewayNode), fmt.Sprintf("/out%d", i))
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Fatal("concurrent jobs produced different answers for the same input")
	}
}

func TestChaosTrackerKillsNeverCorruptResults(t *testing.T) {
	// Property: whatever single-tracker crash/restart schedule plays out
	// mid-job, the job completes with byte-identical results, as long as
	// data replicas survive (replication 3, one node down at a time).
	var reference string
	for trial := 0; trial < 4; trial++ {
		rig := newRig(t, 6, 1, hdfs.Config{BlockSize: 16 << 10, Replication: 3,
			HeartbeatInterval: time.Second, HeartbeatExpiry: 4 * time.Second},
			mrcluster.Config{HeartbeatInterval: time.Second, TrackerExpiry: 4 * time.Second})
		rig.stage(t, "/in/data.txt", corpus(15000))
		h, err := rig.mc.Submit(wordCountJob("/in", "/out"))
		if err != nil {
			t.Fatal(err)
		}
		chaos := sim.NewRand(int64(500 + trial)).Derive("chaos")
		guard := 0
		for !h.Done() {
			if !rig.eng.Step() {
				t.Fatal("stalled")
			}
			if guard++; guard > 5_000_000 {
				t.Fatal("job did not finish")
			}
			// Occasionally crash a tracker and restart it a bit later.
			if trial > 0 && guard%2000 == 0 && chaos.Bernoulli(0.5) {
				victim := cluster.NodeID(chaos.Intn(6))
				rig.mc.KillTaskTracker(victim)
				v := victim
				rig.eng.After(8*time.Second, func() { rig.mc.StartTaskTracker(v) })
			}
		}
		if h.Err() != nil {
			t.Fatalf("trial %d failed: %v", trial, h.Err())
		}
		out, err := mapreduce.ReadOutput(rig.dfs.Client(hdfs.GatewayNode), "/out")
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			reference = out
		} else if out != reference {
			t.Fatalf("trial %d: crash schedule changed the results", trial)
		}
	}
}
