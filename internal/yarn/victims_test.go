package yarn

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// A preemption pass plans its victims on the RM's scratch: once warm, a
// plan allocates only the slice it returns, however many nodes and
// candidates it weighs.
func TestPlanVictimsAllocatesOnlyItsVictims(t *testing.T) {
	eng := sim.NewEngine()
	rm, err := NewCapacityResourceManager(eng, cluster.NewTopology(cluster.PaperNodeConfig(2, 1)), CapacityOptions{
		Queues: QueueConfig{Name: "root", Children: []QueueConfig{
			{Name: "a", Capacity: 0.5, MaxCapacity: 1.0, UserLimitFactor: 4},
			{Name: "b", Capacity: 0.5, MaxCapacity: 1.0, UserLimitFactor: 4},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hog := AppSpec{Name: "hog", User: "ua", Queue: "a"}
	for i := 0; i < 31; i++ {
		hog.Tasks = append(hog.Tasks, TaskSpec{Resource: Resource{VCores: 1, MemoryMB: 1024}, Duration: 2 * time.Hour})
	}
	if _, err := rm.Submit(hog); err != nil {
		t.Fatal(err)
	}
	eng.Advance(time.Minute) // a expands into the whole idle cluster
	var starved *leafQueue
	for _, q := range rm.leaves {
		if q.leaf == "b" {
			starved = q
		}
	}
	req, capNow := Resource{VCores: 2, MemoryMB: 2048}, rm.ClusterCapacity()
	plan := func() []*Container { return rm.planVictims(starved, req, capNow, 8) }

	victims := plan()
	if len(victims) != 2 {
		t.Fatalf("plan has %d victims, want 2", len(victims))
	}
	for i, c := range victims {
		if c.AM || c.App.queue == starved {
			t.Fatalf("victim %d is an AM or the starved queue's own", i)
		}
		if i > 0 && youngestFirst(victims[i-1], c) >= 0 {
			t.Fatalf("victims %d and %d are not youngest first", i-1, i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { plan() }); allocs != 1 {
		t.Errorf("a warm plan made %.0f allocations, want 1 (its victims)", allocs)
	}
}

// A task container's end is an engine event from the free list and a
// place in its master's end order: once warm, granting a container and
// firing its end allocates nothing.
func TestTaskEndAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	rm, err := NewCapacityResourceManager(eng, cluster.NewTopology(cluster.PaperNodeConfig(2, 1)), CapacityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	long := TaskSpec{Resource: Resource{VCores: 1, MemoryMB: 1024}, Duration: 30 * 24 * time.Hour}
	short := TaskSpec{Resource: Resource{VCores: 1, MemoryMB: 1024}, Duration: time.Minute}
	app, err := rm.Submit(AppSpec{Name: "app", User: "u", Tasks: []TaskSpec{long, long, short}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Advance(2 * time.Minute)
	tm := app.master.(*taskMaster)
	if tm.done != 1 || len(rm.taskEnds.h) != 2 {
		t.Fatalf("done=%d, %d task ends pending; want the short task done and the long two pending", tm.done, len(rm.taskEnds.h))
	}
	// A released container of the short task: its end fires and finds it
	// gone.
	c := &Container{App: app, Tag: "2", state: containerReleased}
	grantAndEnd := func() {
		tm.OnAllocated(c)
		eng.Advance(time.Minute)
	}
	if allocs := testing.AllocsPerRun(100, grantAndEnd); allocs != 0 {
		t.Fatalf("a task container's grant and end allocate %.1f times, want 0", allocs)
	}
	if tm.done != 1 || len(rm.taskEnds.h) != 2 {
		t.Fatalf("done=%d, %d task ends pending after the released container's ends fired", tm.done, len(rm.taskEnds.h))
	}
}
