package yarn

import (
	"fmt"
	"strconv"

	"repro/internal/history"
)

// Scheduler event types. Every scheduling decision appends one of
// these to the RM's history.Log, making a run's scheduling behaviour a
// replayable, diffable artifact — and letting CheckLog re-derive the
// cluster state event by event to verify the scheduler's invariants
// from the outside.
const (
	// EvQueue declares one leaf queue at RM construction:
	// queue, guaranteed (fraction), max (fraction), ulf.
	EvQueue = "rm.queue"
	// EvNodeUp activates a node: node, vc, mb, reason (init | scale_up | admin).
	EvNodeUp = "rm.node_up"
	// EvNodeDown deactivates a node: node, reason (scale_down | admin).
	EvNodeDown = "rm.node_down"
	// EvAppSubmit admits an app: app, name, queue, user, tasks.
	EvAppSubmit = "rm.app_submit"
	// EvAMStart launches an app's master container: app, container, node.
	EvAMStart = "rm.am_start"
	// EvAlloc grants a container: container, app, queue, user, node, vc,
	// mb, plus am=1 for master containers or the request's tag.
	EvAlloc = "rm.alloc"
	// EvRelease returns a container: container, app, queue, node, reason.
	EvRelease = "rm.release"
	// EvPreempt kills a container to rebalance: container, app, queue,
	// node, and either for_queue (capacity preemption) or reason=node_drain.
	EvPreempt = "rm.preempt"
	// EvAppFinish completes an app: app, queue, wait_ns, makespan_ns.
	EvAppFinish = "rm.app_finish"
)

// event appends one scheduler event at the current sim time.
func (rm *ResourceManager) event(typ string, attrs map[string]string) {
	rm.log.Append(rm.eng.Now(), typ, attrs)
}

// logInit records the queue tree and the initial node pool so CheckLog
// can replay from an empty state.
func (rm *ResourceManager) logInit() {
	for _, q := range rm.leaves {
		rm.event(EvQueue, map[string]string{
			"queue":      q.path,
			"guaranteed": strconv.FormatFloat(q.guaranteedFrac, 'g', -1, 64),
			"max":        strconv.FormatFloat(q.maxFrac, 'g', -1, 64),
			"ulf":        strconv.FormatFloat(q.ulf, 'g', -1, 64),
		})
	}
	for _, nm := range rm.nodes {
		if nm.active {
			rm.logNodeUp(nm, "init")
		}
	}
}

// logNodeUp and logNodeDown record a pool transition.
func (rm *ResourceManager) logNodeUp(nm *nodeManager, reason string) {
	rm.event(EvNodeUp, map[string]string{
		"node":   nm.idStr,
		"vc":     strconv.Itoa(nm.capacity.VCores),
		"mb":     strconv.FormatInt(nm.capacity.MemoryMB, 10),
		"reason": reason,
	})
}

func (rm *ResourceManager) logNodeDown(nm *nodeManager, reason string) {
	rm.event(EvNodeDown, map[string]string{"node": nm.idStr, "reason": reason})
}

// --- event-sourced invariant checker ---

type ckQueue struct {
	guarFrac float64
	maxFrac  float64
	usedVC   int
}

type ckNode struct {
	capVC  int
	capMB  int64
	usedVC int
	usedMB int64
	active bool
	nlive  int // live containers on the node
}

type ckContainer struct {
	app   string
	queue string
	node  string
	vc    int
	mb    int64
	am    bool
}

type ckState struct {
	queues     map[string]*ckQueue
	nodes      map[string]*ckNode
	containers map[string]ckContainer
	liveApps   map[string]bool
	appLive    map[string]int // live containers per app
	clusterVC  int
}

// CheckLog replays a capacity scheduler event log from empty state and
// verifies the scheduler's core invariants after every event:
//
//   - capacity conservation: every allocation lands on an active node
//     with room, so Σ allocated never exceeds the live cluster;
//   - queue ceilings: no allocation takes a queue past its max capacity
//     (computed against the live cluster, exactly as the scheduler does);
//   - justified preemption: a capacity preemption names a for_queue that
//     is under its guarantee, never cuts the victim's queue below its own
//     (the scheduler's rule, so a 0-vcore victim may leave a queue that
//     sits exactly at its guarantee), and never kills an AM container;
//   - safe scale-down: a node only leaves the pool with zero live
//     containers;
//   - clean finish: an app finishes with no containers left behind.
//
// The first violation is returned with its event index; nil means the
// whole log is invariant-clean.
func CheckLog(events []history.Event) error {
	st := &ckState{
		queues:     map[string]*ckQueue{},
		nodes:      map[string]*ckNode{},
		containers: map[string]ckContainer{},
		liveApps:   map[string]bool{},
		appLive:    map[string]int{},
	}
	for i, ev := range events {
		if err := st.apply(ev); err != nil {
			return fmt.Errorf("event %d (%s @%d): %w", i, ev.Type, int64(ev.TS), err)
		}
	}
	return nil
}

func (st *ckState) apply(ev history.Event) error {
	a := ev.Attrs
	switch ev.Type {
	case EvQueue:
		guar, err1 := strconv.ParseFloat(a["guaranteed"], 64)
		max, err2 := strconv.ParseFloat(a["max"], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad queue fractions %q/%q", a["guaranteed"], a["max"])
		}
		st.queues[a["queue"]] = &ckQueue{guarFrac: guar, maxFrac: max}

	case EvNodeUp:
		n := st.nodes[a["node"]]
		if n == nil {
			n = &ckNode{}
			st.nodes[a["node"]] = n
		}
		if n.active {
			return fmt.Errorf("node %s already active", a["node"])
		}
		vc, err1 := strconv.Atoi(a["vc"])
		mb, err2 := strconv.ParseInt(a["mb"], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad node capacity %q/%q", a["vc"], a["mb"])
		}
		n.capVC, n.capMB, n.active = vc, mb, true
		st.clusterVC += vc

	case EvNodeDown:
		n := st.nodes[a["node"]]
		if n == nil || !n.active {
			return fmt.Errorf("node %s not active", a["node"])
		}
		if n.nlive > 0 {
			return fmt.Errorf("node %s removed with %d live containers", a["node"], n.nlive)
		}
		n.active = false
		st.clusterVC -= n.capVC

	case EvAppSubmit:
		st.liveApps[a["app"]] = true

	case EvAlloc:
		n := st.nodes[a["node"]]
		if n == nil || !n.active {
			return fmt.Errorf("allocation on inactive node %s", a["node"])
		}
		q := st.queues[a["queue"]]
		if q == nil {
			return fmt.Errorf("allocation in unknown queue %q", a["queue"])
		}
		vc, err1 := strconv.Atoi(a["vc"])
		mb, err2 := strconv.ParseInt(a["mb"], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad container size %q/%q", a["vc"], a["mb"])
		}
		if _, dup := st.containers[a["container"]]; dup {
			return fmt.Errorf("container %s allocated twice", a["container"])
		}
		if n.usedVC+vc > n.capVC || n.usedMB+mb > n.capMB {
			return fmt.Errorf("node %s over capacity: %d+%dvc/%d, %d+%dMB/%d",
				a["node"], n.usedVC, vc, n.capVC, n.usedMB, mb, n.capMB)
		}
		maxVC := int(float64(st.clusterVC) * q.maxFrac)
		if q.usedVC+vc > maxVC {
			return fmt.Errorf("queue %s over max capacity: %d+%dvc > %dvc", a["queue"], q.usedVC, vc, maxVC)
		}
		n.usedVC += vc
		n.usedMB += mb
		n.nlive++
		q.usedVC += vc
		st.appLive[a["app"]]++
		st.containers[a["container"]] = ckContainer{
			app: a["app"], queue: a["queue"], node: a["node"],
			vc: vc, mb: mb, am: a["am"] == "1",
		}

	case EvRelease, EvPreempt:
		c, ok := st.containers[a["container"]]
		if !ok {
			return fmt.Errorf("container %s not live", a["container"])
		}
		if ev.Type == EvPreempt {
			if c.am {
				return fmt.Errorf("AM container %s preempted", a["container"])
			}
			if forQ := a["for_queue"]; forQ != "" {
				victim := st.queues[c.queue]
				target := st.queues[forQ]
				if target == nil {
					return fmt.Errorf("preempt for unknown queue %q", forQ)
				}
				if victimGuar := int(float64(st.clusterVC) * victim.guarFrac); victim.usedVC-c.vc < victimGuar {
					return fmt.Errorf("preempt cuts victim queue %s below its guarantee (%dvc - %dvc < %dvc)",
						c.queue, victim.usedVC, c.vc, victimGuar)
				}
				if targetGuar := int(float64(st.clusterVC) * target.guarFrac); target.usedVC >= targetGuar {
					return fmt.Errorf("preempt target queue %s not under guarantee (%dvc >= %dvc)",
						forQ, target.usedVC, targetGuar)
				}
			} else if a["reason"] != "node_drain" {
				return fmt.Errorf("preempt without for_queue or node_drain reason")
			}
		}
		n := st.nodes[c.node]
		n.usedVC -= c.vc
		n.usedMB -= c.mb
		n.nlive--
		st.queues[c.queue].usedVC -= c.vc
		st.appLive[c.app]--
		delete(st.containers, a["container"])

	case EvAppFinish:
		if !st.liveApps[a["app"]] {
			return fmt.Errorf("app %s finished without submit (or twice)", a["app"])
		}
		if n := st.appLive[a["app"]]; n > 0 {
			return fmt.Errorf("app %s finished with %d containers still live", a["app"], n)
		}
		delete(st.liveApps, a["app"])

	case EvAMStart:
		// lifecycle marker only; the AM's resources travel in its EvAlloc.
	}
	return nil
}
