package mrcluster_test

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/digesttest"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/yarn"
)

// sideFileJob is wordcount over the words its side file does not list: a
// mapper that reads /side/stop.txt in Setup, so its user code reads HDFS
// unless the node's DistributedCache holds the file.
func sideFileJob(in, out string) *mapreduce.Job {
	job := wordCountJob(in, out)
	job.Name = "stopwords"
	job.SideFiles = []string{"/side/stop.txt"}
	job.NewMapper = func() mapreduce.Mapper { return &stopWordMapper{} }
	return job
}

type stopWordMapper struct{ stop map[string]bool }

func (m *stopWordMapper) Setup(ctx *mapreduce.TaskContext) error {
	data, err := ctx.ReadSideFile("/side/stop.txt")
	if err != nil {
		return err
	}
	m.stop = map[string]bool{}
	for _, w := range strings.Fields(string(data)) {
		m.stop[w] = true
	}
	return nil
}

func (m *stopWordMapper) Map(ctx *mapreduce.TaskContext, off int64, line string, emit mapreduce.Emitter) error {
	for _, w := range strings.Fields(line) {
		if !m.stop[w] {
			if err := emit.Emit(w, mapreduce.Int64(1)); err != nil {
				return err
			}
		}
	}
	return nil
}

// pooledCase is one job mix TestPooledMapsMatchInline runs.
type pooledCase struct {
	name  string
	cfg   mrcluster.Config
	yarn  bool                 // the JobTracker runs as a YARN application
	fault *mrcluster.TaskFault // armed for the first job
	// loseTracker kills node 1's TaskTracker once the first reduce has
	// launched: the maps it held re-run, and so do the reduces.
	loseTracker bool
	build       func(*testRig) []*mapreduce.Job
}

// pooledRun runs a case's jobs, submitted together, on a fresh 8-node
// cluster (16 map slots, 16 KiB blocks: the first schedule pass launches
// 16 of ~20 maps at once) and returns the run's artifacts — the persisted
// history files, every span, the jobs' counters and their outputs — and
// the rig.
func pooledRun(t *testing.T, tc pooledCase) ([4][]byte, *testRig) {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(8, 2))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: hdfs.Config{BlockSize: 16 << 10}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tc.cfg
	if tc.yarn {
		if cfg.YARN, err = yarn.NewCapacityResourceManager(eng, topo, yarn.CapacityOptions{Obs: dfs.Obs}); err != nil {
			t.Fatal(err)
		}
	}
	rig := &testRig{eng: eng, dfs: dfs, mc: mrcluster.NewMRCluster(dfs, cfg, 13)}
	rig.stage(t, "/side/stop.txt", []byte("the over dog"))
	jobs := tc.build(rig)
	if tc.fault != nil {
		fault := *tc.fault
		fault.JobName = jobs[0].Name
		rig.mc.InjectTaskFault(fault)
	}
	var handles []*mrcluster.JobHandle
	for _, job := range jobs {
		h, err := rig.mc.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	lost := false
	for _, h := range handles {
		for !h.Done() {
			if tc.loseTracker && !lost && rig.mc.Obs.CounterValue(mrcluster.MetricJTReducesLaunched) > 0 {
				rig.mc.KillTaskTracker(1)
				lost = true
			}
			if !eng.Step() {
				t.Fatalf("simulation stalled with %d jobs submitted", len(jobs))
			}
		}
	}
	if tc.loseTracker && !lost {
		t.Fatal("no reduce launched before the jobs ended")
	}
	gw := rig.dfs.Client(hdfs.GatewayNode)
	var events, counters, output []byte
	failed := int64(0)
	for i, h := range handles {
		rep := h.Report()
		failed += rep.Counters.Get(mapreduce.CtrFailedMaps) + rep.Counters.Get(mapreduce.CtrFailedReduces)
		hist, err := vfs.ReadFile(gw, history.EventsPath(rep.JobID))
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, hist...)
		counters = append(counters, rep.Counters.String()...)
		if !rep.Failed {
			out, err := mapreduce.ReadOutput(gw, jobs[i].OutputPath)
			if err != nil {
				t.Fatal(err)
			}
			output = append(output, out...)
		}
	}
	if tc.fault != nil && failed == 0 {
		t.Fatal("the armed fault failed no attempt")
	}
	spans, err := history.Marshal(rig.mc.Obs.Spans())
	if err != nil {
		t.Fatal(err)
	}
	return [4][]byte{events, spans, counters, output}, rig
}

// pooledCases are TestPooledMapsMatchInline's job mixes: six whose maps
// the pool runs, then four that reach the reduce side's failure paths,
// then three that reach the map side's: a read that fails over, a read
// that fails, and speculative attempts.
func pooledCases(t *testing.T) []pooledCase {
	one := func(build func(*testRig) *mapreduce.Job) func(*testRig) []*mapreduce.Job {
		return func(rig *testRig) []*mapreduce.Job { return []*mapreduce.Job{build(rig)} }
	}
	wordcount := func(rig *testRig) *mapreduce.Job {
		rig.stage(t, "/in/data.txt", corpus(8000))
		job := wordCountJob("/in", "/out")
		job.NewCombiner = job.NewReducer
		job.NumReducers = 2
		return job
	}
	sideFiles := func(rig *testRig) *mapreduce.Job {
		rig.stage(t, "/in/data.txt", corpus(8000))
		return sideFileJob("/in", "/out")
	}
	terasort := func(rig *testRig, reduces int) *mapreduce.Job {
		if _, _, err := datagen.Sortable(rig.dfs.Client(hdfs.GatewayNode), "/in/rows.txt", datagen.SortableOpts{Rows: 3000, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		job, err := jobs.TeraSort(rig.dfs.Client(hdfs.GatewayNode), "/in", "/out", reduces)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	terasort8 := func(rig *testRig) *mapreduce.Job { return terasort(rig, 8) }
	// corrupt is wordcount with n replicas of the input's first block
	// corrupted before submit, the lowest node first: that node's tracker
	// takes map 0 data-local, so one corrupt replica makes its read fail
	// over, and all of them fail the reads of the maps that read the block.
	corrupt := func(n int) func(*testRig) *mapreduce.Job {
		return func(rig *testRig) *mapreduce.Job {
			job := wordcount(rig)
			locs, err := rig.dfs.Client(hdfs.GatewayNode).BlockLocations("/in/data.txt")
			if err != nil {
				t.Fatal(err)
			}
			nodes := slices.Clone(locs[0].Nodes)
			slices.Sort(nodes)
			for _, id := range nodes[:min(n, len(nodes))] {
				rig.dfs.DataNode(id).CorruptBlock(locs[0].Block)
			}
			return job
		}
	}
	return []pooledCase{
		{name: "wordcount-combiner", build: one(wordcount)},
		{name: "terasort-8", build: one(terasort8)},
		{name: "side-files-inline", build: one(sideFiles)},
		{name: "side-files-cached", cfg: mrcluster.Config{DistributedCache: true}, build: one(sideFiles)},
		{name: "task-fault", fault: &mrcluster.TaskFault{Probability: 0.15, AfterFraction: 0.5}, build: one(wordcount)},
		{name: "shared-storage", cfg: mrcluster.Config{SharedStorage: true}, build: one(wordcount)},
		{name: "reduce-fault", build: one(terasort8),
			fault: &mrcluster.TaskFault{Scope: mrcluster.ScopeReduce, Probability: 0.3, AfterFraction: 0.5}},
		// Sixteen reduces on 8 reduce slots: half of them launch after
		// the maps that node 1 held have re-run.
		{name: "tracker-lost-after-maps", loseTracker: true, build: one(func(rig *testRig) *mapreduce.Job { return terasort(rig, 16) })},
		{name: "yarn-mode", yarn: true, build: one(terasort8)},
		// Twenty reduces each on 8 reduce slots: most of the first job's
		// reduces still wait for a slot when the second job's maps end.
		{name: "two-jobs", build: func(rig *testRig) []*mapreduce.Job {
			rig.stage(t, "/in/data.txt", corpus(4000))
			var out []*mapreduce.Job
			for _, name := range []string{"first", "second"} {
				job := wordCountJob("/in", "/out-"+name)
				job.Name = name
				job.NumReducers = 20
				out = append(out, job)
			}
			return out
		}},
		{name: "corrupt-replica", build: one(corrupt(1))},
		{name: "unreadable-split", build: one(corrupt(3))},
		// Node 2 runs eight times slower, so its maps are speculated
		// on other nodes and race their originals.
		{name: "speculative", cfg: mrcluster.Config{Speculative: true}, build: one(func(rig *testRig) *mapreduce.Job {
			rig.mc.SetNodeSlowdown(2, 8)
			return wordcount(rig)
		})},
	}
}

// TestPooledMapsMatchInline runs job mixes once with GOMAXPROCS 1 (the
// pool's workers take turns) and once with 4. Both must leave the same
// history files, spans, counters and outputs, and those must be what the
// JobTracker left when it ran every task's user code at its launch on
// the engine goroutine: testdata/pooled_maps.sha256 recorded the first
// six cases at 8d9bf8c, the commit before the map pool, the next four at
// e104d72, the commit before reduces ran ahead of their launch, and the
// last three at e228cf4, the commit before maps ran ahead of theirs. A
// commit out of pick order moves the fault draws and the event sequence;
// a commit on a worker races the engine.
func TestPooledMapsMatchInline(t *testing.T) {
	parts := [4]string{"history", "spans", "counters", "output"}
	pinned := digesttest.Read(t, "testdata/pooled_maps.sha256")
	for _, tc := range pooledCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2][4][]byte
			for i, procs := range []int{1, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					runs[i], _ = pooledRun(t, tc)
				}()
			}
			for p, name := range parts {
				if !bytes.Equal(runs[0][p], runs[1][p]) {
					t.Errorf("%s differs between GOMAXPROCS 1 and 4", name)
				}
			}
			digesttest.Assert(t, pinned, tc.name, runs[1][:]...)
		})
	}
}

// TestTasksRunInlineOnlyWhenTheyMust reads mr.jt.maps_inline and
// mr.jt.reduces_inline after each job mix. A task runs its user code on
// the engine goroutine only when its job has side files, when it is a
// retry, a speculative attempt or a re-run after a lost tracker, when a
// map's charged read failed, or when the map outputs a reduce's run read
// are gone; never for a clean job, whatever the mode, the number of jobs
// or a corrupt replica its read fails over.
func TestTasksRunInlineOnlyWhenTheyMust(t *testing.T) {
	inline := map[string][2]bool{ // maps, reduces
		"side-files-inline":       {true, true},
		"side-files-cached":       {true, true},
		"task-fault":              {true, false},
		"reduce-fault":            {false, true},
		"tracker-lost-after-maps": {true, true},
		"unreadable-split":        {true, false},
		"speculative":             {true, false},
	}
	for _, tc := range pooledCases(t) {
		_, rig := pooledRun(t, tc)
		maps, reduces := rig.mc.JT.TasksInline()
		for i, kind := range []struct {
			name             string
			inline, launched int64
		}{
			{"maps", maps, rig.mc.Obs.CounterValue(mrcluster.MetricJTMapsLaunched)},
			{"reduces", reduces, rig.mc.Obs.CounterValue(mrcluster.MetricJTReducesLaunched)},
		} {
			if kind.inline > kind.launched {
				t.Errorf("%s: %d %s inline of %d launched", tc.name, kind.inline, kind.name, kind.launched)
			}
			if (kind.inline > 0) != inline[tc.name][i] {
				t.Errorf("%s: %d %s ran inline", tc.name, kind.inline, kind.name)
			}
		}
	}
}
