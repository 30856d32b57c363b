package yarn_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// newRM builds an RM over the given queue tree; nil is FIFO, the
// single-leaf DefaultQueues().
func newRM(t testing.TB, nodes int, queues *yarn.QueueConfig) (*sim.Engine, *yarn.ResourceManager) {
	t.Helper()
	var opts yarn.CapacityOptions
	if queues != nil {
		opts.Queues = *queues
	}
	return newCapRM(t, nodes, opts)
}

// fairQueues is fair sharing as a queue tree: two equal-guarantee
// leaves, each elastic to the whole idle cluster.
func fairQueues() *yarn.QueueConfig {
	return &yarn.QueueConfig{
		Name: "root",
		Children: []yarn.QueueConfig{
			{Name: "grad", Capacity: 0.5, UserLimitFactor: 2},
			{Name: "default", Capacity: 0.5, UserLimitFactor: 2},
		},
	}
}

func uniformApp(name, user string, tasks int, perTask time.Duration) yarn.AppSpec {
	spec := yarn.AppSpec{Name: name, User: user}
	for i := 0; i < tasks; i++ {
		spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
			Resource: yarn.Resource{VCores: 2, MemoryMB: 4096},
			Duration: perTask,
		})
	}
	return spec
}

func TestSingleAppRunsToCompletion(t *testing.T) {
	eng, rm := newRM(t, 4, nil)
	app, err := rm.Submit(uniformApp("wordcount", "alice", 10, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if app.State != yarn.AppRunning {
		t.Fatalf("app state = %v, want RUNNING immediately on a free cluster", app.State)
	}
	eng.Run()
	if app.State != yarn.AppFinished {
		t.Fatalf("state = %v", app.State)
	}
	// 10 tasks x 2vc on 4 nodes x 16 cores: all run in one wave -> ~1 min.
	if app.Makespan() != time.Minute {
		t.Fatalf("makespan = %v, want 1m (single wave)", app.Makespan())
	}
	if rm.Utilization() != 0 {
		t.Fatalf("resources leaked: utilization %.2f after finish", rm.Utilization())
	}
}

func TestWavesWhenOversubscribed(t *testing.T) {
	eng, rm := newRM(t, 1, nil) // 16 cores: AM takes 1, 7 tasks of 2vc fit
	app, err := rm.Submit(uniformApp("big", "bob", 14, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if app.Makespan() != 2*time.Minute {
		t.Fatalf("makespan = %v, want 2m (two waves of 7)", app.Makespan())
	}
}

func TestRejectsImpossibleRequests(t *testing.T) {
	_, rm := newRM(t, 2, nil)
	if _, err := rm.Submit(yarn.AppSpec{Name: "empty", User: "x"}); err == nil {
		t.Fatal("empty app accepted")
	}
	huge := yarn.AppSpec{Name: "huge", User: "x", Tasks: []yarn.TaskSpec{{
		Resource: yarn.Resource{VCores: 999, MemoryMB: 1}, Duration: time.Second}}}
	if _, err := rm.Submit(huge); err == nil {
		t.Fatal("oversized container accepted")
	}
}

func TestFIFOStarvesSmallJobs(t *testing.T) {
	// The multi-tenancy lesson: a deadline-night cluster with one huge job
	// at the head of the queue. FIFO makes every later small job wait for
	// the giant; fair sharing interleaves them.
	run := func(queues *yarn.QueueConfig) (bigMakespan time.Duration, smallWait []time.Duration) {
		eng, rm := newRM(t, 8, queues)
		bigSpec := uniformApp("thesis-job", "grad", 400, 2*time.Minute)
		if queues != nil {
			bigSpec.Queue = "grad" // students stay in "default"
		}
		big, err := rm.Submit(bigSpec)
		if err != nil {
			t.Fatal(err)
		}
		var smalls []*yarn.Application
		for i := 0; i < 10; i++ {
			eng.Advance(10 * time.Second)
			app, err := rm.Submit(uniformApp(fmt.Sprintf("hw-%d", i), fmt.Sprintf("student%d", i), 4, time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			smalls = append(smalls, app)
		}
		eng.Run()
		if !rm.AllFinished() {
			t.Fatal("apps unfinished")
		}
		for _, s := range smalls {
			smallWait = append(smallWait, s.Makespan())
		}
		return big.Makespan(), smallWait
	}
	bigFIFO, smallFIFO := run(nil)
	bigFair, smallFair := run(fairQueues())

	medF := median(smallFIFO)
	medR := median(smallFair)
	if medR*3 > medF {
		t.Fatalf("fair sharing should cut small-job latency >=3x: fifo=%v fair=%v", medF, medR)
	}
	// The big job pays only modestly for fairness.
	if bigFair > bigFIFO*2 {
		t.Fatalf("fairness tax on the big job too high: %v vs %v", bigFair, bigFIFO)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestFairSharingIsWorkConserving(t *testing.T) {
	// With a single app, fair and FIFO must perform identically: fairness
	// never idles capacity.
	mk := func(queues *yarn.QueueConfig) time.Duration {
		eng, rm := newRM(t, 2, queues)
		app, err := rm.Submit(uniformApp("only", "solo", 40, time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return app.Makespan()
	}
	if f, r := mk(nil), mk(fairQueues()); f != r {
		t.Fatalf("single-app makespan differs: fifo=%v fair=%v", f, r)
	}
}

func TestUtilizationTracksLoad(t *testing.T) {
	eng, rm := newRM(t, 1, nil)
	if _, err := rm.Submit(uniformApp("u", "x", 7, time.Minute)); err != nil {
		t.Fatal(err)
	}
	// AM 1vc + 7x2vc = 15 of 16 cores.
	if u := rm.Utilization(); u < 0.9 {
		t.Fatalf("utilization = %.2f, want ~0.94", u)
	}
	eng.Run()
	if rm.Utilization() != 0 {
		t.Fatal("utilization nonzero after completion")
	}
}

func TestMemoryConstrainedPacking(t *testing.T) {
	// Memory, not cores, is the bottleneck: 64 GB nodes, 30 GB containers
	// -> two per node regardless of cores.
	eng, rm := newRM(t, 2, nil)
	spec := yarn.AppSpec{Name: "mem", User: "m"}
	for i := 0; i < 8; i++ {
		spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
			Resource: yarn.Resource{VCores: 1, MemoryMB: 30 << 10},
			Duration: time.Minute,
		})
	}
	app, err := rm.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// 8 tasks, 2 nodes x 2 containers = 4 at a time -> 2 waves.
	if app.Makespan() != 2*time.Minute {
		t.Fatalf("makespan = %v, want 2m with memory-limited packing", app.Makespan())
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []time.Duration {
		eng, rm := newRM(t, 4, fairQueues())
		var apps []*yarn.Application
		for i := 0; i < 6; i++ {
			a, err := rm.Submit(uniformApp(fmt.Sprintf("a%d", i), "u", 10+i, time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a)
			eng.Advance(5 * time.Second)
		}
		eng.Run()
		var out []time.Duration
		for _, a := range apps {
			out = append(out, a.Makespan())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic schedule: %v vs %v", a, b)
		}
	}
}

func BenchmarkFairQueuesManyApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, rm := newRM(b, 8, fairQueues())
		for j := 0; j < 50; j++ {
			if _, err := rm.Submit(uniformApp(fmt.Sprintf("a%d", j), "u", 20, time.Minute)); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run()
		if !rm.AllFinished() {
			b.Fatal("unfinished")
		}
	}
}

// TestWaitTimeSurvivesAMDrain drains the node under a running app's AM.
// The app is re-admitted through a second AM grant, but its wait for the
// first container — WaitTime, and wait_ns in rm.app_finish — stays the
// original one (zero: granted at submission), not the re-admission delay.
func TestWaitTimeSurvivesAMDrain(t *testing.T) {
	eng, rm := newRM(t, 2, nil)
	app, err := rm.Submit(uniformApp("drained", "d", 4, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	amStarts := func() (n int, node cluster.NodeID) {
		for _, ev := range rm.EventLog().Events() {
			if ev.Type == yarn.EvAMStart {
				id, err := strconv.Atoi(ev.Attrs.Get("node"))
				if err != nil {
					t.Fatal(err)
				}
				n, node = n+1, cluster.NodeID(id)
			}
		}
		return n, node
	}
	eng.Advance(20 * time.Second)
	_, amNode := amStarts()
	rm.SetNodeActive(amNode, false)
	if n, node := amStarts(); n != 2 || node == amNode {
		t.Fatalf("after the drain: %d AM starts, last on node %d (drained %d)", n, node, amNode)
	}
	if got := app.WaitTime(); got != 0 {
		t.Fatalf("WaitTime = %v after the AM drain, want the original 0s", got)
	}
	eng.Run()
	if app.State != yarn.AppFinished {
		t.Fatalf("app state = %v after the drain", app.State)
	}
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
}
