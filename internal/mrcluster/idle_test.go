package mrcluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// runTo runs lcJob with the given output path to completion.
func (r *lcRig) runTo(t *testing.T, out string, failing *attemptKind) *Report {
	t.Helper()
	job := lcJob(3, failing)
	job.OutputPath = out
	rep, err := r.mc.Run(job)
	if err != nil && failing == nil {
		t.Fatal(err)
	}
	return rep
}

// outcomeOf is what two runs of one job on two clusters must agree on:
// everything in the report but the job's number and its place on the clock.
func outcomeOf(r *Report) string {
	return fmt.Sprintf("failed=%v maps=%d reduces=%d makespan=%v map-phase=%v median-map=%v median-reduce=%v\n%s",
		r.Failed, r.MapTasks, r.ReduceTasks, r.Makespan(), r.MapPhase(), r.MedianMapTime, r.MedianReduceTime, r.Counters)
}

// TestFinishedJobReleasesMapOutputs: a job's map outputs are its shuffle's
// input and nothing else, so a job that has ended — either way — must not
// keep them reachable through the JobTracker's job table, or a cluster
// that has run a TeraSort holds the dataset for the rest of its life.
func TestFinishedJobReleasesMapOutputs(t *testing.T) {
	used := newLCRig(t, Config{MaxAttempts: 1}, false)
	var last *Report
	for i, failing := range []*attemptKind{nil, used.mc.JT.reduceKind, nil} {
		last = used.runTo(t, fmt.Sprintf("/out%d", i), failing)
		if last.Failed != (failing != nil) {
			t.Fatalf("job %d: failed = %v", i, last.Failed)
		}
		for _, jr := range used.mc.JT.jobs {
			for _, m := range jr.maps {
				if m.output != nil {
					t.Fatalf("after job %d ended, %s of %s still holds its output", i, m.id(), jr.id)
				}
			}
			if jr.scratch != nil || jr.reduceScratch != nil {
				t.Fatalf("after job %d ended, %s still holds a task scratch", i, jr.id)
			}
		}
	}
	fresh := newLCRig(t, Config{MaxAttempts: 1}, false)
	if got, want := outcomeOf(last), outcomeOf(fresh.runTo(t, "/out2", nil)); got != want {
		t.Fatalf("third job on a used cluster:\n%s\non a fresh cluster:\n%s", got, want)
	}
}

// TestIdleHeartbeatsDoNotWalkTheCluster: once its last job has ended, a
// cluster's heartbeats still count as scheduler invocations but none of
// them walks trackers, jobs or tasks, and the hour costs next to no
// allocation; the next submission finds the scheduler as it left it.
func TestIdleHeartbeatsDoNotWalkTheCluster(t *testing.T) {
	const nodes = 64
	rig := newLCRigOn(t, nodes, 4, Config{}, false)
	jt := rig.mc.JT
	rig.runTo(t, "/out0", nil)
	if jt.walks == 0 {
		t.Fatal("a job ran without one scheduling pass walking the cluster")
	}

	passes, walks, events := jt.m.schedulePasses.Value(), jt.walks, rig.eng.Processed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rig.eng.Advance(time.Hour)
	runtime.ReadMemStats(&after)

	// One pass per TaskTracker heartbeat and one per JobTracker expiry
	// check, all on the same period.
	beats := int64(time.Hour / rig.mc.cfg.HeartbeatInterval)
	if got := jt.m.schedulePasses.Value() - passes; got != (nodes+1)*beats {
		t.Fatalf("schedule_passes grew by %d over an idle hour, want %d", got, (nodes+1)*beats)
	}
	if jt.walks != walks {
		t.Fatalf("%d idle passes walked the cluster", jt.walks-walks)
	}
	events = rig.eng.Processed - events
	if perEvent := float64(after.Mallocs-before.Mallocs) / float64(events); perEvent > 0.05 {
		t.Fatalf("%.3f allocations per event over %d idle events, want <= 0.05", perEvent, events)
	}

	got := outcomeOf(rig.runTo(t, "/out1", nil))
	if jt.walks == walks {
		t.Fatal("the gate did not re-open for the second job")
	}
	fresh := newLCRigOn(t, nodes, 4, Config{}, false)
	if want := outcomeOf(fresh.runTo(t, "/out1", nil)); got != want {
		t.Fatalf("second job after an idle hour:\n%s\non a fresh cluster:\n%s", got, want)
	}
}
