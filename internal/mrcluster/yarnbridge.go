package mrcluster

import (
	"repro/internal/yarn"
)

// This file runs the JobTracker as a YARN application — the MRv2 shape
// the paper's future-work section points at. With Config.YARN set, the
// JobTracker stops owning per-node map/reduce slots: each submitted job
// becomes a managed application on the capacity ResourceManager, and
// every task attempt runs inside a container negotiated from it. Jobs,
// faults, metrics and history all keep flowing through the JobTracker
// unchanged; only the "where may work run, and how much of it" decision
// moves into the RM's capacity queues — one scheduling path shared with
// every other tenant of the cluster.
//
// Differences from slot mode, by design:
//   - Speculative execution is disabled (the RM's preemption is the
//     resource-rebalancing mechanism; speculation would fight it for
//     containers).
//   - Slot counters remain as informational gauges of per-node
//     concurrency but no longer cap anything; container sizes do.
//   - A preempted attempt is killed without a failure charge and its
//     task re-requests a container — exactly the tracker-loss re-attempt
//     path, but surgical.

// Container request tags: the RM echoes them on granted containers so
// the JobTracker knows which kind of work it asked for.
const (
	tagMap    = "map"
	tagReduce = "reduce"
)

// yarnMode reports whether the JobTracker negotiates containers from a
// YARN ResourceManager instead of owning per-node slots.
func (jt *JobTracker) yarnMode() bool { return jt.mc.cfg.YARN != nil }

// jtAppMaster adapts one job run to the yarn.AppMaster interface.
type jtAppMaster struct {
	jt *JobTracker
	jr *jobRun
}

func (am *jtAppMaster) OnAllocated(c *yarn.Container) { am.jt.onContainerAllocated(am.jr, c) }
func (am *jtAppMaster) OnPreempted(c *yarn.Container) { am.jt.onContainerPreempted(am.jr, c) }

// submitApp registers a job as a managed YARN application in its queue.
func (jt *JobTracker) submitApp(jr *jobRun) error {
	user := jr.job.User
	if user == "" {
		user = "hdfs"
	}
	app, err := jt.mc.cfg.YARN.SubmitManaged(yarn.AppSpec{
		Name:  jr.id,
		User:  user,
		Queue: jr.job.Queue,
	}, &jtAppMaster{jt: jt, jr: jr})
	if err != nil {
		return err
	}
	jr.app = app
	return nil
}

// syncRequests reconciles each running job's outstanding container
// requests with its runnable tasks: one map request per pending map
// (carrying the split's replica hosts as locality hints), one reduce
// request per pending reduce once the maps are done, and cancellations
// when demand shrank (a task got done another way). Called from every
// schedule() pass, so demand converges within a heartbeat.
func (jt *JobTracker) syncRequests() {
	rm := jt.mc.cfg.YARN
	for _, jr := range jt.live {
		if jr.app == nil || jr.app.State != yarn.AppRunning {
			continue
		}
		tasks := [2][]*task{kindMap: jr.maps}
		if jr.mapsDone == len(jr.maps) {
			tasks[kindReduce] = jr.reduces
		}
		for _, k := range [...]*attemptKind{jt.mapKind, jt.reduceKind} {
			var pend []*task
			for _, t := range tasks[k.idx] {
				if t.state == taskPending {
					pend = append(pend, t)
				}
			}
			if d := len(pend) - jr.reqs[k.idx]; d > 0 {
				for _, t := range pend[len(pend)-d:] {
					jr.reqs[k.idx]++
					rm.Request(jr.app, yarn.ContainerRequest{
						Resource: k.container,
						Hosts:    t.split.Hosts, // nil for reduces: any node will do
						Tag:      k.name,
					})
				}
			} else if d < 0 {
				jr.reqs[k.idx] -= rm.CancelRequests(jr.app, k.name, -d)
			}
		}
	}
}

// onContainerAllocated matches a granted container to the best runnable
// task. Allocations can go stale (the task finished or failed between
// request and grant, or the tracker died); stale containers go straight
// back to the RM.
func (jt *JobTracker) onContainerAllocated(jr *jobRun, c *yarn.Container) {
	rm := jt.mc.cfg.YARN
	if c.Tag == tagReduce {
		jr.reqs[kindReduce]--
	} else {
		jr.reqs[kindMap]--
	}
	if jr.state != jobRunning {
		rm.Release(c, "job_done")
		return
	}
	tt := jt.mc.TaskTracker(c.Node)
	if tt == nil || !tt.alive {
		rm.Release(c, "tracker_dead")
		return
	}
	var t *task
	switch c.Tag {
	case tagMap:
		t = jt.pickMapTaskFor(jr, tt)
	case tagReduce:
		t = firstPending(jr.reduces)
	default:
		rm.Release(c, "bad_tag")
		return
	}
	if t == nil {
		rm.Release(c, "stale")
	} else if !t.kind.launch(t, tt, false, c) {
		rm.Release(c, "unfetchable")
	}
}

// pickMapTaskFor returns the pending map task with the best locality for
// the container's node (first data-local, then rack-local, then any),
// walking tasks in index order for determinism.
func (jt *JobTracker) pickMapTaskFor(jr *jobRun, tt *TaskTracker) *task {
	var best *task
	bestRank := 3
	for _, t := range jr.maps {
		if t.state != taskPending {
			continue
		}
		if r := jt.localityRank(t, tt); r < bestRank {
			best, bestRank = t, r
			if r == 0 {
				break
			}
		}
	}
	return best
}

// onContainerPreempted kills the attempt running inside a preempted
// container — without a failure charge, exactly like the tracker-loss
// path — and lets the next schedule pass re-request a replacement.
func (jt *JobTracker) onContainerPreempted(jr *jobRun, c *yarn.Container) {
	if a := jt.containerAttempts[c.ID]; a != nil {
		jt.killAttempt(a, "preempted")
	}
	if jr.state == jobRunning {
		jt.schedule()
	}
}

// releaseContainer returns an attempt's container to the RM (no-op in
// slot mode or when the RM already took it back by preemption).
func (jt *JobTracker) releaseContainer(a *attempt, reason string) {
	if a.container == nil {
		return
	}
	delete(jt.containerAttempts, a.container.ID)
	if !a.container.Released() {
		jt.mc.cfg.YARN.Release(a.container, reason)
	}
}
