package yarn

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/cluster"
)

// PreemptionConfig tunes the capacity scheduler's preemption monitor.
type PreemptionConfig struct {
	// Enabled turns the monitor on (off by default: pure capacity
	// scheduling, a starved queue waits for natural container churn).
	Enabled bool
	// MaxPerRound bounds containers killed per scan (default 8) so one
	// scan can't mass-evict a queue.
	MaxPerRound int
}

// preemptInterval is how often the monitor scans for starved queues
// (sim time).
const preemptInterval = 15 * time.Second

func (c PreemptionConfig) withDefaults() PreemptionConfig {
	if c.MaxPerRound <= 0 {
		c.MaxPerRound = 8
	}
	return c
}

// runPreemption is the periodic monitor: for each queue that is starved
// (has demand but sits under its vcore guarantee) while others run over
// theirs, build the cheapest node-local victim plan that frees room for
// the starved queue's head request, and kill those containers. Victim
// selection is deterministic: youngest container first (latest start,
// then highest id), never an AM, and never cutting a victim queue below
// its own guarantee — which is what makes back-to-back rounds converge
// instead of thrashing allocations back and forth.
func (rm *ResourceManager) runPreemption() {
	if rm.inPass {
		return
	}
	capNow := rm.ClusterCapacity()
	var starved []*leafQueue
	for _, q := range rm.leaves { // rm.leaves is path-sorted
		if q.used.VCores < q.guaranteed(capNow).VCores && rm.queueDemand(q) > 0 {
			starved = append(starved, q)
		}
	}
	if len(starved) == 0 {
		return
	}
	byNeed(starved, capNow)
	budget := rm.preemptCfg.MaxPerRound
	// Latch the pass: victims' masters re-request from inside
	// OnPreempted, and those allocations must wait until the round is
	// done or they would race the queues we are rebalancing.
	rm.inPass = true
	for _, q := range starved {
		if budget <= 0 {
			break
		}
		req, ok := rm.headNeed(q)
		if !ok {
			continue
		}
		if rm.allocate(req) != nil {
			continue // a node already has room; scheduling will serve it
		}
		victims := rm.planVictims(q, req, capNow, budget)
		if victims == nil {
			continue
		}
		for _, v := range victims {
			rm.preemptContainer(v, q.path)
		}
		budget -= len(victims)
	}
	rm.inPass = false
	rm.kick()
}

// queueDemand sums the queue's unserved vcore demand: AM containers of
// pending apps plus outstanding requests of running ones.
func (rm *ResourceManager) queueDemand(q *leafQueue) int {
	demand := 0
	for _, app := range q.apps {
		if app.State == AppPending {
			demand += app.Spec.AMResource.VCores
			continue
		}
		for _, r := range app.requests {
			demand += r.Resource.VCores
		}
	}
	return demand
}

// headNeed returns the starved queue's first unserved container size in
// submission order.
func (rm *ResourceManager) headNeed(q *leafQueue) (Resource, bool) {
	for _, app := range q.apps {
		if app.State == AppPending {
			return app.Spec.AMResource, true
		}
		if len(app.requests) > 0 {
			return app.requests[0].Resource, true
		}
	}
	return Resource{}, false
}

// victimScratch is planVictims' working memory, kept on the RM so that a
// pass allocates only the victims it returns.
type victimScratch struct {
	cands, victims, best []*Container
	reduced              []queueVCores
}

// queueVCores is the vcores a victim plan has already taken from a queue.
type queueVCores struct {
	q      *leafQueue
	vcores int
}

// youngestFirst orders containers by start, latest first, then by id,
// highest first. Ids are unique, so the order is total.
func youngestFirst(a, b *Container) int {
	if a.StartedAt != b.StartedAt {
		return cmp.Compare(b.StartedAt, a.StartedAt)
	}
	return cmp.Compare(b.ID, a.ID)
}

// planVictims finds the cheapest single-node victim set that frees room
// for res: per node, take youngest eligible containers until the node
// fits the request; across nodes, prefer the fewest victims, then the
// lowest node id. Eligible victims are live non-AM containers whose
// queue stays at or above its guarantee after the kill. Returns nil when
// no node can be cleared within budget.
func (rm *ResourceManager) planVictims(starved *leafQueue, res Resource, capNow Resource, budget int) []*Container {
	sc := &rm.victims
	best := sc.best[:0]
	bestNode := cluster.NodeID(-1)
	for _, nm := range rm.nodes {
		if !nm.active || !res.Fits(nm.capacity) {
			continue
		}
		need := res.minus(nm.free())
		cands := sc.cands[:0]
		for _, c := range nm.containers {
			if c.state == containerLive && !c.AM && c.App.queue != starved {
				cands = append(cands, c)
			}
		}
		slices.SortFunc(cands, youngestFirst)
		victims, reduced := sc.victims[:0], sc.reduced[:0]
		freed := Resource{}
		for _, c := range cands {
			if freed.VCores >= need.VCores && freed.MemoryMB >= need.MemoryMB {
				break
			}
			vq := c.App.queue
			i := 0
			for i < len(reduced) && reduced[i].q != vq {
				i++
			}
			if i == len(reduced) {
				reduced = append(reduced, queueVCores{q: vq})
			}
			if vq.used.VCores-reduced[i].vcores-c.Resource.VCores < vq.guaranteed(capNow).VCores {
				continue // would cut the victim queue below its guarantee
			}
			victims = append(victims, c)
			reduced[i].vcores += c.Resource.VCores
			freed = freed.plus(c.Resource)
		}
		clear(cands)
		clear(reduced)
		sc.cands, sc.victims, sc.reduced = cands, victims, reduced
		if freed.VCores < need.VCores || freed.MemoryMB < need.MemoryMB || len(victims) > budget {
			continue
		}
		// An empty plan is no plan: the next node that qualifies replaces it.
		if len(best) == 0 || len(victims) < len(best) ||
			(len(victims) == len(best) && nm.id < bestNode) {
			best, bestNode = append(best[:0], victims...), nm.id
		}
	}
	var out []*Container
	if len(best) > 0 {
		out = slices.Clone(best)
	}
	clear(best)
	clear(sc.victims[:cap(sc.victims)])
	sc.best = best[:0]
	return out
}

// preemptContainer kills one container to rebalance capacity (forQueue
// names the starved beneficiary; empty means a node drain) and tells the
// owning master to re-attempt the work.
func (rm *ResourceManager) preemptContainer(c *Container, forQueue string) {
	if c.state != containerLive || c.AM {
		return
	}
	rm.preemptions++
	c.App.Preemptions++
	reason := "node_drain"
	if forQueue != "" {
		reason = "preempt"
	}
	rm.endContainer(c, containerPreempted, rm.m.containersPreempted, EvPreempt, reason, forQueue)
	if c.App.master != nil {
		c.App.master.OnPreempted(c)
	}
}
