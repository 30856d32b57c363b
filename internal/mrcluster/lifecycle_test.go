package mrcluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/mapreduce"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/yarn"
)

// lcRig is a cluster for one lifecycle scenario; rm is nil in slot mode.
type lcRig struct {
	eng *sim.Engine
	mc  *MRCluster
	rm  *yarn.ResourceManager
}

// newLCRig builds a 6-node cluster with a wide-vocabulary corpus staged
// (every partition of every job below has work). With yarnMode the
// JobTracker runs as an application in queue a of two half-guarantee
// queues with preemption on.
func newLCRig(t *testing.T, cfg Config, yarnMode bool) *lcRig {
	t.Helper()
	return newLCRigOn(t, 6, 1, cfg, yarnMode)
}

// newLCRigOn is newLCRig on a topology of the given size.
func newLCRigOn(t *testing.T, nodes, racks int, cfg Config, yarnMode bool) *lcRig {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(nodes, racks))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: hdfs.Config{BlockSize: 8 << 10}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rig := &lcRig{eng: eng}
	if yarnMode {
		rig.rm, err = yarn.NewCapacityResourceManager(eng, topo, yarn.CapacityOptions{
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
		cfg.YARN = rig.rm
	}
	rig.mc = NewMRCluster(dfs, cfg, 6)
	var in strings.Builder
	for i := 0; i < 160_000; i++ {
		fmt.Fprintf(&in, "w%03d", i*7%997)
		if i%8 == 7 {
			in.WriteByte('\n')
		} else {
			in.WriteByte(' ')
		}
	}
	if err := vfs.WriteFile(dfs.Client(hdfs.GatewayNode), "/in/data.txt", []byte(in.String())); err != nil {
		t.Fatal(err)
	}
	return rig
}

// lcJob is wordcount; the user code of failing's kind returns an error.
func lcJob(reducers int, failing *attemptKind) *mapreduce.Job {
	boom := func(k taskKind) error {
		if failing != nil && failing.idx == k {
			return errors.New("boom")
		}
		return nil
	}
	return &mapreduce.Job{
		Name: "wordcount",
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, off int64, line string, emit mapreduce.Emitter) error {
				for _, w := range strings.Fields(line) {
					if err := emit.Emit(w, mapreduce.Int64(1)); err != nil {
						return err
					}
				}
				return boom(kindMap)
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
				if err := boom(kindReduce); err != nil {
					return err
				}
				return emit.Emit(key, mapreduce.Int64(sum))
			})
		},
		DecodeValue: mapreduce.DecodeInt64,
		InputPaths:  []string{"/in"},
		OutputPath:  "/out",
		NumReducers: reducers,
	}
}

// stepUntil advances the simulation one event at a time until cond holds.
func (r *lcRig) stepUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for n := 0; !cond(); n++ {
		if !r.eng.Step() || n > 5_000_000 {
			t.Fatalf("simulation ended before %s", what)
		}
	}
}

// running returns the live attempts of jr's tasks of kind k.
func running(jr *jobRun, k *attemptKind) []*attempt {
	var out []*attempt
	for _, t := range [2][]*task{jr.maps, jr.reduces}[k.idx] {
		out = append(out, t.attempts...)
	}
	return out
}

// TestAttemptLifecycleParity drives every way an attempt can end, once
// per kind, and checks one side-effect set against both kinds — the table
// in DESIGN.md's "attempt lifecycle" section: the slot or container comes
// back, the attempt leaves one span with its outcome and one start plus
// one terminal history event, staged reduce output is gone, and the
// matching job counters and mr.jt.* metrics moved together.
func TestAttemptLifecycleParity(t *testing.T) {
	slow := Config{
		MapWork:    cluster.CPUWork{PerByte: 24_000_000},
		ReduceWork: cluster.CPUWork{PerByte: 5_000_000},
	}
	outcomes := []struct {
		name string
		// outcome is the span outcome wanted, evType the terminal history
		// event; each may depend on the kind in name only.
		outcome func(k *attemptKind) string
		evType  string
		jobErr  bool
		yarn    bool
		cfg     Config
		run     func(t *testing.T, rig *lcRig, k *attemptKind) *JobHandle
	}{
		{
			name:    "succeeded",
			outcome: func(*attemptKind) string { return "succeeded" },
			evType:  history.EvAttemptFinish,
			run: func(t *testing.T, rig *lcRig, k *attemptKind) *JobHandle {
				return rig.submit(t, lcJob(6, nil))
			},
		},
		{
			name:    "user error",
			outcome: func(*attemptKind) string { return "failed" },
			evType:  history.EvAttemptFail,
			jobErr:  true,
			cfg:     Config{MaxAttempts: 1},
			run: func(t *testing.T, rig *lcRig, k *attemptKind) *JobHandle {
				return rig.submit(t, lcJob(6, k))
			},
		},
		{
			name:    "injected fault",
			outcome: func(*attemptKind) string { return "failed" },
			evType:  history.EvAttemptFail,
			jobErr:  true,
			cfg:     Config{MaxAttempts: 1},
			run: func(t *testing.T, rig *lcRig, k *attemptKind) *JobHandle {
				scope := [2]TaskScope{ScopeMap, ScopeReduce}[k.idx]
				rig.mc.InjectTaskFault(TaskFault{JobName: "wordcount", Scope: scope, Probability: 1, AfterFraction: 0.5})
				return rig.submit(t, lcJob(6, nil))
			},
		},
		{
			name: "killed: tracker lost",
			outcome: func(k *attemptKind) string {
				// A reduce on a lost tracker dies with every other reduce
				// that was shuffling from it.
				return [2]string{"killed:tracker lost", "killed:shuffle source lost"}[k.idx]
			},
			evType: history.EvAttemptKill,
			run: func(t *testing.T, rig *lcRig, k *attemptKind) *JobHandle {
				h := rig.submit(t, lcJob(6, nil))
				rig.stepUntil(t, "an attempt ran", func() bool { return len(running(h.jr, k)) > 0 })
				rig.mc.KillTaskTracker(running(h.jr, k)[0].tt.id)
				return h
			},
		},
		{
			name:    "killed: sibling won",
			outcome: func(*attemptKind) string { return "killed:sibling finished first" },
			evType:  history.EvAttemptKill,
			cfg:     Config{Speculative: true, NodeSlowdown: map[cluster.NodeID]float64{2: 8}},
			run: func(t *testing.T, rig *lcRig, k *attemptKind) *JobHandle {
				return rig.submit(t, lcJob(6, nil))
			},
		},
		{
			name:    "killed: preempted",
			outcome: func(*attemptKind) string { return "killed:preempted" },
			evType:  history.EvAttemptKill,
			yarn:    true,
			cfg:     slow,
			run: func(t *testing.T, rig *lcRig, k *attemptKind) *JobHandle {
				// Wait until the job holds more of the cluster than queue
				// a's 48-vcore guarantee in containers of this kind, then
				// land a tenant in queue b.
				h := rig.submit(t, lcJob(60, nil))
				rig.stepUntil(t, "the job outgrew its guarantee", func() bool { return len(running(h.jr, k)) >= 50 })
				spec := yarn.AppSpec{Name: "claim", User: "ub", Queue: "b"}
				for i := 0; i < 40; i++ {
					spec.Tasks = append(spec.Tasks, yarn.TaskSpec{Resource: yarn.Resource{VCores: 1, MemoryMB: 1024}, Duration: 2 * time.Minute})
				}
				if _, err := rig.rm.Submit(spec); err != nil {
					t.Fatal(err)
				}
				return h
			},
		},
	}
	for _, oc := range outcomes {
		for _, kindName := range []string{tagMap, tagReduce} {
			oc, kindName := oc, kindName
			t.Run(kindName+"/"+oc.name, func(t *testing.T) {
				rig := newLCRig(t, oc.cfg, oc.yarn)
				jt := rig.mc.JT
				k := map[string]*attemptKind{tagMap: jt.mapKind, tagReduce: jt.reduceKind}[kindName]
				h := oc.run(t, rig, k)
				rig.stepUntil(t, "the job finished", h.Done)
				if (h.Err() != nil) != oc.jobErr {
					t.Fatalf("job error = %v, want error: %v", h.Err(), oc.jobErr)
				}
				checkLifecycle(t, rig, h.jr, k, oc.outcome(k), oc.evType)
			})
		}
	}
}

func (r *lcRig) submit(t *testing.T, job *mapreduce.Job) *JobHandle {
	t.Helper()
	if r.rm != nil {
		job.Queue = "a"
	}
	h, err := r.mc.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkLifecycle asserts the side-effect set of a finished job whose
// attempts of kind k were driven to outcome at least once. Nothing in it
// branches on the kind.
func checkLifecycle(t *testing.T, rig *lcRig, jr *jobRun, k *attemptKind, outcome, evType string) {
	t.Helper()
	jt := rig.mc.JT

	// Resources: every slot and container is back.
	for _, tt := range rig.mc.trackers {
		if tt.alive && tt.slotsUsed != [2]int{} {
			t.Errorf("%s still has slots %v in use", tt.node.Hostname, tt.slotsUsed)
		}
	}
	if n := len(jt.containerAttempts); n != 0 {
		t.Errorf("%d containers still indexed to attempts", n)
	}
	if jr.app != nil {
		for _, c := range jr.app.Containers() {
			if !c.Released() {
				t.Errorf("container %d never released", c.ID)
			}
		}
	}
	// Temp output: nothing staged survives the job.
	if left, err := rig.mc.DFS.Client(hdfs.GatewayNode).List("/out/_temporary"); err == nil && len(left) > 0 {
		t.Errorf("staged reduce output left behind: %v", left)
	}

	// Spans: the attempts of this kind that ended this way.
	want := map[string]bool{}
	for _, s := range rig.mc.Obs.Spans() {
		if s.Name == k.span && s.Attrs["outcome"] == outcome {
			if want[s.Attrs["attempt"]] {
				t.Errorf("%s has two %q spans", s.Attrs["attempt"], outcome)
			}
			want[s.Attrs["attempt"]] = true
		}
	}
	if len(want) == 0 {
		t.Fatalf("scenario drove no %s attempt to %q", k.name, outcome)
	}

	// History: one start and one terminal event per attempt, and the
	// attempts above are exactly the ones with this terminal event.
	starts, ends, kinds := map[string]int{}, map[string]string{}, map[string]string{}
	launched, killed := int64(0), int64(0)
	for _, e := range jr.hist.Events() {
		id := e.Attrs["attempt"]
		switch e.Type {
		case history.EvAttemptStart:
			starts[id]++
			kinds[id] = e.Attrs["kind"]
			if e.Attrs["kind"] == k.name {
				launched++
			}
		case history.EvAttemptFinish, history.EvAttemptFail, history.EvAttemptKill:
			if ends[id] != "" {
				t.Errorf("%s has a second terminal event %s after %s", id, e.Type, ends[id])
			}
			ends[id] = e.Type
			if e.Type == history.EvAttemptKill {
				killed++
				if want[id] && "killed:"+e.Attrs["reason"] != outcome {
					t.Errorf("%s killed for %q, span says %q", id, e.Attrs["reason"], outcome)
				}
			}
		}
	}
	got := 0
	for id, n := range starts {
		if n != 1 || ends[id] == "" {
			t.Errorf("%s: %d start events, terminal event %q", id, n, ends[id])
		}
		if kinds[id] == k.name && ends[id] == evType && (evType != history.EvAttemptKill || want[id]) {
			got++
			if !want[id] {
				t.Errorf("%s ended with %s but has no %q span", id, evType, outcome)
			}
		}
	}
	if got != len(want) {
		t.Errorf("%d %s attempts ended with %s, %d have a %q span", got, k.name, evType, len(want), outcome)
	}

	// Counters and metrics move together.
	n := int64(len(want))
	eq := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", what, got, want)
		}
	}
	eq(k.ctrLaunched, jr.counters.Get(k.ctrLaunched), launched)
	eq("launched metric", k.launched.Value(), launched)
	eq(mapreduce.CtrKilledTaskAttempts, jr.counters.Get(mapreduce.CtrKilledTaskAttempts), killed)
	eq(MetricJTAttemptsKilled, jt.m.attemptsKilled.Value(), killed)
	switch evType {
	case history.EvAttemptFinish:
		eq("attempt-time observations", k.attemptTime.Count(), n)
		eq("recorded durations", int64(len(jr.durations[k.idx])), n)
	case history.EvAttemptFail:
		eq(k.ctrFailed, jr.counters.Get(k.ctrFailed), n)
		eq("failed metric", k.failed.Value(), n)
		eq(mapreduce.CtrTaskRetries, jr.counters.Get(mapreduce.CtrTaskRetries), n)
	}
}

// retryFirstMap makes the first attempt of map task 0 fail, so the task
// is retried. The failure is keyed on the attempt's own id, so the mapper
// shares no mutable state across attempts and a test using it stays
// race-free however attempts are run.
func retryFirstMap(job *mapreduce.Job) *mapreduce.Job {
	newMapper := job.NewMapper
	job.NewMapper = func() mapreduce.Mapper {
		m := newMapper()
		return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, off int64, line string, emit mapreduce.Emitter) error {
			if strings.HasSuffix(ctx.TaskID, "_m_000000_1") { // map task 0, attempt 1
				return errors.New("first attempt fails")
			}
			return m.Map(ctx, off, line, emit)
		})
	}
	return job
}

// TestTaskSpanStartsAtFirstLaunch: a retried task's mr.task span runs
// from its first launch, not from the launch of the attempt that
// finished it. The first attempt of map task 0 fails and is retried.
func TestTaskSpanStartsAtFirstLaunch(t *testing.T) {
	rig := newLCRig(t, Config{}, false)
	h := rig.submit(t, retryFirstMap(lcJob(2, nil)))
	rig.stepUntil(t, "the job finished", h.Done)
	if h.Err() != nil {
		t.Fatal(h.Err())
	}

	// The retried task, and the first launch of each task, from the
	// attempt spans ("attempt_<task>_<seq>").
	retried, first := "", map[string]time.Duration{}
	for _, s := range rig.mc.Obs.Spans() {
		if s.Name != SpanMapAttempt {
			continue
		}
		if s.Trace == "" {
			t.Fatalf("attempt span %s has no trace; want the job sampled", s.Attrs["attempt"])
		}
		id := s.Attrs["attempt"]
		task := id[len("attempt_"):strings.LastIndex(id, "_")]
		if st, ok := first[task]; !ok || s.Start < st {
			first[task] = s.Start
		}
		if s.Attrs["outcome"] == "failed" {
			retried = task
		}
	}
	if !strings.HasSuffix(retried, "_m_000000") {
		t.Fatalf("retried task %q, want map task 0", retried)
	}
	for _, s := range rig.mc.Obs.Spans() {
		if s.Name == SpanTask && s.Attrs["task"] == retried {
			if s.Start != first[retried] {
				t.Errorf("%s span starts at %v, want its first launch at %v", retried, s.Start, first[retried])
			}
			return
		}
	}
	t.Errorf("no %s span for %s", SpanTask, retried)
}

// TestUnsampledJobRecordsNoSpans: a job whose trace head sampling drops
// records no span at all — job, task, attempt, shuffle or HDFS — while
// its persisted history file still holds the whole attempt lifecycle,
// here a failed and retried map included.
func TestUnsampledJobRecordsNoSpans(t *testing.T) {
	rig := newLCRig(t, Config{}, false)
	rig.mc.Obs.SetTraceSampling(1 << 30)
	rig.mc.Obs.NewTrace(0) // spend the window's one sampled trace
	before := len(rig.mc.Obs.Spans())
	h := rig.submit(t, retryFirstMap(lcJob(2, nil)))
	rig.stepUntil(t, "the job finished", h.Done)
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if spans := rig.mc.Obs.Spans(); len(spans) != before {
		t.Fatalf("an unsampled job recorded %d span(s), the first %s", len(spans)-before, spans[before].Name)
	}

	data, err := vfs.ReadFile(rig.mc.DFS.Client(hdfs.GatewayNode), history.EventsPath(h.Report().JobID))
	if err != nil {
		t.Fatal(err)
	}
	events, err := history.Parse[history.Event](data)
	if err != nil {
		t.Fatal(err)
	}
	ends, failed := map[string]string{}, ""
	for _, e := range events {
		id := e.Attrs["attempt"]
		switch e.Type {
		case history.EvAttemptStart:
			ends[id] = ""
		case history.EvAttemptFinish, history.EvAttemptFail:
			if ends[id] != "" {
				t.Errorf("%s ends twice", id)
			}
			ends[id] = e.Type
			if e.Type == history.EvAttemptFail {
				failed = id
			}
		}
	}
	if !strings.HasSuffix(failed, "_m_000000_1") {
		t.Errorf("failed attempt %q, want map task 0's first", failed)
	}
	ctr := h.Report().Counters
	if got, want := len(ends), int(ctr.Get(mapreduce.CtrLaunchedMaps)+ctr.Get(mapreduce.CtrLaunchedReduces)); got != want {
		t.Errorf("history starts %d attempts, want %d", got, want)
	}
	for id, end := range ends {
		if end == "" {
			t.Errorf("%s has no finish or fail event", id)
		}
	}
}
