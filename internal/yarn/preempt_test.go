package yarn_test

import (
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/yarn"
)

// halfHalfQueues is the two-tenant tree the preemption tests use: each
// queue guaranteed half the cluster, both elastic to the whole of it.
func halfHalfQueues() yarn.QueueConfig {
	return yarn.QueueConfig{
		Name: "root",
		Children: []yarn.QueueConfig{
			{Name: "a", Capacity: 0.5, MaxCapacity: 1.0, UserLimitFactor: 4},
			{Name: "b", Capacity: 0.5, MaxCapacity: 1.0, UserLimitFactor: 4},
		},
	}
}

func longApp(name, user, queue string, tasks int, d time.Duration) yarn.AppSpec {
	spec := yarn.AppSpec{Name: name, User: user, Queue: queue}
	for i := 0; i < tasks; i++ {
		spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
			Resource: yarn.Resource{VCores: 1, MemoryMB: 1024},
			Duration: d,
		})
	}
	return spec
}

// preemptEvents returns the rm.preempt events in the log.
func preemptEvents(rm *yarn.ResourceManager) []history.Event {
	var out []history.Event
	for _, ev := range rm.EventLog().Events() {
		if ev.Type == yarn.EvPreempt {
			out = append(out, ev)
		}
	}
	return out
}

// TestPreemptionRestoresGuarantee is the happy path: queue a overflows
// an idle cluster, queue b arrives, preemption claws b's guarantee
// back, and every kill in the log is justified.
func TestPreemptionRestoresGuarantee(t *testing.T) {
	eng, rm := newCapRM(t, 2, yarn.CapacityOptions{ // 32 vc
		Queues:     halfHalfQueues(),
		Preemption: yarn.PreemptionConfig{Enabled: true},
	})
	a, err := rm.Submit(longApp("hog", "ua", "a", 31, 2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	eng.Advance(time.Minute) // a expands into the whole idle cluster
	b, err := rm.Submit(longApp("claim", "ub", "b", 14, 2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	eng.Advance(5 * time.Minute) // several preemption rounds
	if rm.Preemptions() == 0 {
		t.Fatal("no preemptions fired; queue b never got its guarantee back")
	}
	usedBy := func(app *yarn.Application) int {
		used := 0
		for _, c := range app.Containers() { // task containers; AM excluded
			if !c.Released() {
				used += c.Resource.VCores
			}
		}
		return used
	}
	// b's demand (AM + 14 tasks = 15 vc) sits under its 16 vc guarantee,
	// so preemption must win ALL of it back.
	if got := usedBy(b); got < 14 {
		t.Fatalf("queue b runs %d task vc after preemption, want its full 14-task demand", got)
	}
	if got := len(b.Containers()); got != 14 {
		t.Fatalf("queue b has %d live task containers, want all 14 requests served", got)
	}
	// a keeps at most its guarantee (16 vc incl. its AM -> ≤15 task vc)
	// plus the one-container overshoot the round granularity allows.
	if got := usedBy(a); got > 16 {
		t.Fatalf("queue a still holds %d task vc, above its guarantee", got)
	}
	if a.Preemptions == 0 {
		t.Fatal("app a recorded no preemptions")
	}
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
}

// TestAMContainerNeverPreempted pins the scheduler's hardest rule:
// however starved the other queue is, application masters are not
// victims — killing one would lose the app, not rebalance it.
func TestAMContainerNeverPreempted(t *testing.T) {
	eng, rm := newCapRM(t, 2, yarn.CapacityOptions{
		Queues:     halfHalfQueues(),
		Preemption: yarn.PreemptionConfig{Enabled: true, MaxPerRound: 32},
	})
	// Ten small apps in queue a: ten AMs spread across the cluster, so a
	// victim plan that ignored the AM rule would certainly hit one.
	var aApps []*yarn.Application
	for i := 0; i < 10; i++ {
		app, err := rm.Submit(longApp("a", "ua", "a", 2, 2*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		aApps = append(aApps, app)
	}
	eng.Advance(time.Minute)
	if _, err := rm.Submit(longApp("b", "ub", "b", 15, 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	eng.Advance(10 * time.Minute)
	if rm.Preemptions() == 0 {
		t.Fatal("scenario produced no preemptions")
	}
	for _, ev := range preemptEvents(rm) {
		if ev.Attrs.Get("am") == "1" {
			t.Fatalf("AM container preempted: %v", ev)
		}
	}
	// Every app in the squeezed queue is still alive: its AM survived.
	for _, app := range aApps {
		if app.State != yarn.AppRunning {
			t.Fatalf("app %d lost its AM (state %v)", app.ID, app.State)
		}
	}
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptionConverges pins the no-thrash property: once the starved
// queue has its guarantee, preemption stops — the monitor must not bounce
// containers back and forth between two steady queues.
func TestPreemptionConverges(t *testing.T) {
	eng, rm := newCapRM(t, 2, yarn.CapacityOptions{
		Queues:     halfHalfQueues(),
		Preemption: yarn.PreemptionConfig{Enabled: true},
	})
	if _, err := rm.Submit(longApp("hog", "ua", "a", 31, 3*time.Hour)); err != nil {
		t.Fatal(err)
	}
	eng.Advance(time.Minute)
	if _, err := rm.Submit(longApp("claim", "ub", "b", 14, 3*time.Hour)); err != nil {
		t.Fatal(err)
	}
	eng.Advance(10 * time.Minute)
	settled := rm.Preemptions()
	if settled == 0 {
		t.Fatal("no preemptions fired")
	}
	// Steady state: both queues hold long-running work, nothing finishes,
	// so another half hour of preemption rounds must kill nothing new.
	eng.Advance(30 * time.Minute)
	if got := rm.Preemptions(); got != settled {
		t.Fatalf("preemption thrash: count grew %d -> %d in steady state", settled, got)
	}
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
}

// TestScaleDownNeverKillsLiveContainers drives the autoscaler through a
// grow/shrink cycle and asserts — directly and via the log oracle — that
// scale-down only ever parks empty nodes.
func TestScaleDownNeverKillsLiveContainers(t *testing.T) {
	eng, rm := newCapRM(t, 6, yarn.CapacityOptions{
		Queues:    testQueues(),
		Autoscale: yarn.AutoscaleConfig{Enabled: true, MinNodes: 1, Cooldown: time.Minute},
	})
	if rm.ActiveNodes() != 1 {
		t.Fatalf("pool starts with %d nodes, want MinNodes=1", rm.ActiveNodes())
	}
	app, err := rm.Submit(longApp("burst", "u0", "beta", 40, 10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	eng.Advance(5 * time.Minute)
	grown := rm.ActiveNodes()
	if grown < 3 {
		t.Fatalf("pool grew only to %d nodes under 41 vc of demand", grown)
	}
	drain(t, eng, rm, 30*time.Second, 1000)
	if app.State != yarn.AppFinished {
		t.Fatalf("burst app state %v", app.State)
	}
	// Idle now: cooldowns pass, the pool must shed nodes one per tick
	// back to the floor, and the log oracle verifies each parked node
	// held zero containers at that moment.
	eng.Advance(30 * time.Minute)
	if got := rm.ActiveNodes(); got != 1 {
		t.Fatalf("idle pool still has %d active nodes, want MinNodes=1", got)
	}
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
	// The cycle actually scaled both ways.
	ups, downs := 0, 0
	for _, ev := range rm.EventLog().Events() {
		switch {
		case ev.Type == yarn.EvNodeUp && ev.Attrs.Get("reason") == "scale_up":
			ups++
		case ev.Type == yarn.EvNodeDown && ev.Attrs.Get("reason") == "scale_down":
			downs++
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("expected both scale directions, got %d ups / %d downs", ups, downs)
	}
}
