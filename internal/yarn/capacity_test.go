package yarn_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// testQueues is the three-tenant tree the capacity tests share.
func testQueues() yarn.QueueConfig {
	return yarn.QueueConfig{
		Name: "root",
		Children: []yarn.QueueConfig{
			{Name: "alpha", Capacity: 0.4, MaxCapacity: 0.7, UserLimitFactor: 2},
			{Name: "beta", Capacity: 0.4, MaxCapacity: 0.9, UserLimitFactor: 2},
			{Name: "default", Capacity: 0.2, UserLimitFactor: 2},
		},
	}
}

func newCapRM(t testing.TB, nodes int, opts yarn.CapacityOptions) (*sim.Engine, *yarn.ResourceManager) {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(nodes, 1))
	rm, err := yarn.NewCapacityResourceManager(eng, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rm
}

// drain advances the clock in fixed steps until every app finished (the
// preemption/autoscale tickers keep the event queue alive forever, so
// eng.Run() alone never returns once either monitor is enabled).
func drain(t testing.TB, eng *sim.Engine, rm *yarn.ResourceManager, step time.Duration, maxSteps int) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		if rm.AllFinished() {
			return
		}
		eng.Advance(step)
	}
	t.Fatalf("workload did not drain after %v", time.Duration(maxSteps)*step)
}

// TestCapacityInvariantsAcrossSeeds is the scheduler's property test:
// randomized submissions across several seeds, then the event-sourced
// oracle (CheckLog) replays the scheduler's own log and asserts, event
// by event, that capacity was conserved on every node, no queue ever
// exceeded its max capacity at allocation time, every preemption was
// justified (victim queue over guarantee, starved queue under it, never
// an AM), and nodes only drained empty. On top of the log oracle it
// asserts liveness: every app finishes and none starves beyond a
// bounded wait.
func TestCapacityInvariantsAcrossSeeds(t *testing.T) {
	queues := []string{"alpha", "beta", "default"}
	for _, seed := range []int64{1, 7, 42, 99, 2026} {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			eng, rm := newCapRM(t, 6, yarn.CapacityOptions{
				Queues:     testQueues(),
				Preemption: yarn.PreemptionConfig{Enabled: true},
				Autoscale:  yarn.AutoscaleConfig{Enabled: true, MinNodes: 2},
			})
			rng := sim.NewRand(seed).Derive("prop")
			apps := make([]*yarn.Application, 0, 40)
			for i := 0; i < 40; i++ {
				spec := yarn.AppSpec{
					Name:  fmt.Sprintf("app-%02d", i),
					User:  fmt.Sprintf("u%d", rng.Intn(4)),
					Queue: queues[rng.Intn(len(queues))],
				}
				tasks := 1 + rng.Intn(6)
				for j := 0; j < tasks; j++ {
					spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
						Resource: yarn.Resource{VCores: 1, MemoryMB: 1024 + int64(rng.Intn(2))*1024},
						Duration: 30*time.Second + time.Duration(rng.Intn(150))*time.Second,
					})
				}
				at := sim.Time(rng.Intn(20)) * sim.Time(time.Minute)
				eng.Schedule(at, func() {
					app, err := rm.Submit(spec)
					if err != nil {
						t.Errorf("submit %s: %v", spec.Name, err)
						return
					}
					apps = append(apps, app)
				})
			}
			eng.RunUntil(sim.Time(20 * time.Minute))
			drain(t, eng, rm, 30*time.Second, 1000)

			if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
				t.Fatalf("event log violates scheduler invariants: %v", err)
			}
			if got := len(apps); got != 40 {
				t.Fatalf("only %d/40 apps were accepted", got)
			}
			for _, app := range apps {
				if app.State != yarn.AppFinished {
					t.Fatalf("%s never finished (state %v)", app.Spec.Name, app.State)
				}
				// Bounded starvation: on a cluster this size no app may wait
				// longer than 15 minutes for its first container.
				if w := app.WaitTime(); w > 15*time.Minute {
					t.Fatalf("%s starved: waited %v for its AM", app.Spec.Name, w)
				}
			}
			if u := rm.Utilization(); u != 0 {
				t.Fatalf("resources leaked: utilization %.3f after drain", u)
			}
		})
	}
}

// TestQueueMaxCapacityIsCeiling pins the elasticity contract: with the
// cluster otherwise idle a queue may grow past its guarantee, but never
// past MaxCapacity.
func TestQueueMaxCapacityIsCeiling(t *testing.T) {
	eng, rm := newCapRM(t, 4, yarn.CapacityOptions{Queues: testQueues()})
	// 4 nodes x 16 vc = 64 vc. alpha: guarantee 25.6 vc, ceiling 44.8 vc.
	spec := yarn.AppSpec{Name: "hog", User: "u0", Queue: "alpha"}
	for i := 0; i < 60; i++ {
		spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
			Resource: yarn.Resource{VCores: 1, MemoryMB: 512},
			Duration: time.Hour,
		})
	}
	app, err := rm.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Advance(time.Minute)
	used := 0
	for _, c := range app.Containers() {
		if !c.Released() {
			used += c.Resource.VCores
		}
	}
	if used > 44 {
		t.Fatalf("alpha used %d vc, above its 0.7 ceiling of 44 vc", used)
	}
	if used < 40 {
		t.Fatalf("alpha used only %d vc on an idle cluster; elasticity should reach ~44", used)
	}
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
}

// TestUserLimitSharesQueue pins the user-limit factor: one user cannot
// monopolize a queue their colleague is waiting in.
func TestUserLimitSharesQueue(t *testing.T) {
	eng, rm := newCapRM(t, 4, yarn.CapacityOptions{Queues: testQueues()})
	// alpha guarantee = 25.6 vc, ULF 2 -> per-user cap ~51 vc, but the
	// queue ceiling is 44 vc. Drop ULF by using "default" instead:
	// guarantee 12.8 vc, ULF 2 -> per-user cap 25.6 vc.
	mk := func(name, user string) *yarn.Application {
		spec := yarn.AppSpec{Name: name, User: user, Queue: "default"}
		for i := 0; i < 30; i++ {
			spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
				Resource: yarn.Resource{VCores: 1, MemoryMB: 512},
				Duration: time.Hour,
			})
		}
		app, err := rm.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	a := mk("first", "alice")
	eng.Advance(time.Second)
	b := mk("second", "bob")
	eng.Advance(time.Minute)
	usedBy := func(app *yarn.Application) int {
		used := 0
		for _, c := range app.Containers() {
			if !c.Released() {
				used += c.Resource.VCores
			}
		}
		return used
	}
	au, bu := usedBy(a), usedBy(b)
	// The user limit may overshoot by at most one container past the cap
	// (26 vc incl. AM); the essential claim is bob is not starved.
	if au > 28 {
		t.Fatalf("alice holds %d vc despite the user limit", au)
	}
	if bu < 5 {
		t.Fatalf("bob got only %d vc; the user limit should leave him room", bu)
	}
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
}
