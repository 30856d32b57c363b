package yarn

import (
	"fmt"
	"strconv"

	"repro/internal/history"
	"repro/internal/obs"
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
func (rm *ResourceManager) event(typ string, attrs obs.Attrs) {
	rm.log.Append(rm.eng.Now(), typ, attrs)
}

// seqID formats prefix and n zero-padded to width digits, as
// fmt.Sprintf("c%06d", n) does, in one allocation: the string.
func seqID(prefix string, n, width int) string {
	var buf [32]byte
	return string(obs.AppendPadded(append(buf[:0], prefix...), uint64(n), width))
}

// logInit records the queue tree and the initial node pool so CheckLog
// can replay from an empty state.
func (rm *ResourceManager) logInit() {
	for _, q := range rm.leaves {
		rm.event(EvQueue, obs.Attrs{
			{Key: "guaranteed", Value: strconv.FormatFloat(q.guaranteedFrac, 'g', -1, 64)},
			{Key: "max", Value: strconv.FormatFloat(q.maxFrac, 'g', -1, 64)},
			{Key: "queue", Value: q.path},
			{Key: "ulf", Value: strconv.FormatFloat(q.ulf, 'g', -1, 64)},
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
	rm.event(EvNodeUp, obs.Attrs{
		{Key: "mb", Value: strconv.FormatInt(nm.capacity.MemoryMB, 10)},
		{Key: "node", Value: nm.idStr},
		{Key: "reason", Value: reason},
		{Key: "vc", Value: strconv.Itoa(nm.capacity.VCores)},
	})
}

func (rm *ResourceManager) logNodeDown(nm *nodeManager, reason string) {
	rm.event(EvNodeDown, obs.Attrs{{Key: "node", Value: nm.idStr}, {Key: "reason", Value: reason}})
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
		guar, err1 := strconv.ParseFloat(a.Get("guaranteed"), 64)
		max, err2 := strconv.ParseFloat(a.Get("max"), 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad queue fractions %q/%q", a.Get("guaranteed"), a.Get("max"))
		}
		st.queues[a.Get("queue")] = &ckQueue{guarFrac: guar, maxFrac: max}

	case EvNodeUp:
		n := st.nodes[a.Get("node")]
		if n == nil {
			n = &ckNode{}
			st.nodes[a.Get("node")] = n
		}
		if n.active {
			return fmt.Errorf("node %s already active", a.Get("node"))
		}
		vc, err1 := strconv.Atoi(a.Get("vc"))
		mb, err2 := strconv.ParseInt(a.Get("mb"), 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad node capacity %q/%q", a.Get("vc"), a.Get("mb"))
		}
		n.capVC, n.capMB, n.active = vc, mb, true
		st.clusterVC += vc

	case EvNodeDown:
		n := st.nodes[a.Get("node")]
		if n == nil || !n.active {
			return fmt.Errorf("node %s not active", a.Get("node"))
		}
		if n.nlive > 0 {
			return fmt.Errorf("node %s removed with %d live containers", a.Get("node"), n.nlive)
		}
		n.active = false
		st.clusterVC -= n.capVC

	case EvAppSubmit:
		st.liveApps[a.Get("app")] = true

	case EvAlloc:
		n := st.nodes[a.Get("node")]
		if n == nil || !n.active {
			return fmt.Errorf("allocation on inactive node %s", a.Get("node"))
		}
		q := st.queues[a.Get("queue")]
		if q == nil {
			return fmt.Errorf("allocation in unknown queue %q", a.Get("queue"))
		}
		vc, err1 := strconv.Atoi(a.Get("vc"))
		mb, err2 := strconv.ParseInt(a.Get("mb"), 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad container size %q/%q", a.Get("vc"), a.Get("mb"))
		}
		if _, dup := st.containers[a.Get("container")]; dup {
			return fmt.Errorf("container %s allocated twice", a.Get("container"))
		}
		if n.usedVC+vc > n.capVC || n.usedMB+mb > n.capMB {
			return fmt.Errorf("node %s over capacity: %d+%dvc/%d, %d+%dMB/%d",
				a.Get("node"), n.usedVC, vc, n.capVC, n.usedMB, mb, n.capMB)
		}
		maxVC := int(float64(st.clusterVC) * q.maxFrac)
		if q.usedVC+vc > maxVC {
			return fmt.Errorf("queue %s over max capacity: %d+%dvc > %dvc", a.Get("queue"), q.usedVC, vc, maxVC)
		}
		n.usedVC += vc
		n.usedMB += mb
		n.nlive++
		q.usedVC += vc
		st.appLive[a.Get("app")]++
		st.containers[a.Get("container")] = ckContainer{
			app: a.Get("app"), queue: a.Get("queue"), node: a.Get("node"),
			vc: vc, mb: mb, am: a.Get("am") == "1",
		}

	case EvRelease, EvPreempt:
		c, ok := st.containers[a.Get("container")]
		if !ok {
			return fmt.Errorf("container %s not live", a.Get("container"))
		}
		if ev.Type == EvPreempt {
			if c.am {
				return fmt.Errorf("AM container %s preempted", a.Get("container"))
			}
			if forQ := a.Get("for_queue"); forQ != "" {
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
			} else if a.Get("reason") != "node_drain" {
				return fmt.Errorf("preempt without for_queue or node_drain reason")
			}
		}
		n := st.nodes[c.node]
		n.usedVC -= c.vc
		n.usedMB -= c.mb
		n.nlive--
		st.queues[c.queue].usedVC -= c.vc
		st.appLive[c.app]--
		delete(st.containers, a.Get("container"))

	case EvAppFinish:
		if !st.liveApps[a.Get("app")] {
			return fmt.Errorf("app %s finished without submit (or twice)", a.Get("app"))
		}
		if n := st.appLive[a.Get("app")]; n > 0 {
			return fmt.Errorf("app %s finished with %d containers still live", a.Get("app"), n)
		}
		delete(st.liveApps, a.Get("app"))

	case EvAMStart:
		// lifecycle marker only; the AM's resources travel in its EvAlloc.
	}
	return nil
}
