package mrcluster_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/digesttest"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/vfs"
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

// pooledRun runs one case's job on a fresh 8-node cluster (16 map slots,
// 16 KiB blocks: the first schedule pass launches 16 of ~20 maps at once)
// and returns the run's artifacts: the persisted history file, every
// span, the job's counters and its output.
func pooledRun(t *testing.T, cfg mrcluster.Config, fault *mrcluster.TaskFault, build func(*testRig) *mapreduce.Job) [4][]byte {
	t.Helper()
	rig := newRig(t, 8, 2, hdfs.Config{BlockSize: 16 << 10}, cfg)
	rig.stage(t, "/side/stop.txt", []byte("the over dog"))
	job := build(rig)
	if fault != nil {
		fault.JobName = job.Name
		rig.mc.InjectTaskFault(*fault)
	}
	rep, err := rig.mc.Run(job)
	if rep == nil {
		t.Fatal(err) // a failed job still has a report to compare
	}
	if fault != nil && rep.Counters.Get(mapreduce.CtrFailedMaps) == 0 {
		t.Fatal("the armed fault failed no map attempt")
	}
	gw := rig.dfs.Client(hdfs.GatewayNode)
	events, err := vfs.ReadFile(gw, history.EventsPath(rep.JobID))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := history.Marshal(rig.mc.Obs.Spans())
	if err != nil {
		t.Fatal(err)
	}
	var output string
	if !rep.Failed {
		if output, err = mapreduce.ReadOutput(gw, "/out"); err != nil {
			t.Fatal(err)
		}
	}
	return [4][]byte{events, spans, []byte(rep.Counters.String()), []byte(output)}
}

// TestPooledMapsMatchInline runs jobs whose first schedule pass launches
// a batch of maps, once with GOMAXPROCS 1 (every batch runs inline) and
// once with 4 (the batch's user code runs on the worker pool). Both must
// leave the same history file, spans, counters and output, and those
// must be what the JobTracker left when it ran each map's user code at
// its launch: testdata/pooled_maps.sha256 was recorded at 8d9bf8c, the
// commit before the pool. A commit out of pick order moves the fault
// draws and the event sequence; a commit on a worker races the engine.
func TestPooledMapsMatchInline(t *testing.T) {
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
	cases := []struct {
		name  string
		cfg   mrcluster.Config
		fault *mrcluster.TaskFault
		build func(*testRig) *mapreduce.Job
	}{
		{name: "wordcount-combiner", build: wordcount},
		{name: "terasort-8", build: func(rig *testRig) *mapreduce.Job {
			if _, _, err := datagen.Sortable(rig.dfs.Client(hdfs.GatewayNode), "/in/rows.txt", datagen.SortableOpts{Rows: 3000, Seed: 3}); err != nil {
				t.Fatal(err)
			}
			job, err := jobs.TeraSort(rig.dfs.Client(hdfs.GatewayNode), "/in", "/out", 8)
			if err != nil {
				t.Fatal(err)
			}
			return job
		}},
		{name: "side-files-inline", build: sideFiles},
		{name: "side-files-cached", cfg: mrcluster.Config{DistributedCache: true}, build: sideFiles},
		{name: "task-fault", fault: &mrcluster.TaskFault{Probability: 0.15, AfterFraction: 0.5}, build: wordcount},
		{name: "shared-storage", cfg: mrcluster.Config{SharedStorage: true}, build: wordcount},
	}
	parts := [4]string{"history", "spans", "counters", "output"}
	pinned := digesttest.Read(t, "testdata/pooled_maps.sha256")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2][4][]byte
			for i, procs := range []int{1, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					var fault *mrcluster.TaskFault
					if tc.fault != nil {
						f := *tc.fault
						fault = &f
					}
					runs[i] = pooledRun(t, tc.cfg, fault, tc.build)
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
