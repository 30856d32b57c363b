package yarn

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the capacity scheduler's allocation engine: a
// deterministic scheduling pass that hands free containers to the most
// underserved queue first, plus the built-in task driver that runs plain
// AppSpec task lists as managed apps.

// kick runs scheduling passes until no more containers can be placed.
// Re-entrant calls (AppMaster callbacks frequently Request/Release from
// inside a pass) just mark the pass dirty; the outer loop re-runs until
// a full pass places nothing and nothing re-dirtied it.
func (rm *ResourceManager) kick() {
	if rm.inPass {
		rm.passDirty = true
		return
	}
	rm.inPass = true
	for {
		rm.passDirty = false
		for rm.allocateOne() {
		}
		if !rm.passDirty {
			break
		}
	}
	rm.inPass = false
	rm.m.pendingApps.Set(int64(rm.pending))
}

// allocateOne places exactly one container: walk leaves from most
// underserved (lowest used/guaranteed vcore ratio, ties by path), and
// within a leaf walk apps in submission order. A pending app's head
// request is its AM container; a running app's is the front of its
// request queue. Blocked apps (no node with room, queue ceiling, user
// limit) are skipped so the pass stays work-conserving. Returns false
// when nothing anywhere can be placed.
func (rm *ResourceManager) allocateOne() bool {
	// room is the component-wise largest free Resource of any active node:
	// a request that does not fit it fits no node, whatever its locality
	// hints. On a full cluster a blocked app costs two compares, and a pass
	// with less room than anything ever asked for walks no app at all.
	var capNow, room Resource
	for _, nm := range rm.nodes {
		if nm.active {
			capNow = capNow.plus(nm.capacity)
			room = room.upper(nm.free())
		}
	}
	if !rm.minAsk.Fits(room) {
		return false
	}
	rm.order = append(rm.order[:0], rm.leaves...)
	byNeed(rm.order, capNow)
	for _, q := range rm.order {
		maxAll := q.maxAllowed(capNow)
		uCap := q.userCap(capNow)
		for _, app := range q.apps {
			var res Resource
			var isAM bool
			switch {
			case app.State == AppPending:
				res, isAM = app.Spec.AMResource, true
			case app.State == AppRunning && len(app.requests) > 0:
				res = app.requests[0].Resource
			default:
				continue
			}
			if !res.Fits(room) {
				continue
			}
			if !q.used.plus(res).Fits(maxAll) {
				continue // queue at its elastic ceiling for this size
			}
			// User limit: a user already at or past their cap gets
			// nothing more. A user below it may overshoot by at most one
			// container (YARN's behaviour), which guarantees progress
			// even when the cap rounds below a single container.
			if uu := q.userUsed[app.User]; uu.VCores > 0 && uu.VCores >= uCap.VCores {
				continue
			}
			var nm *nodeManager
			if isAM {
				nm = rm.allocate(res)
			} else {
				nm = rm.placeFor(app.requests[0])
			}
			if nm == nil {
				continue // no node fits; let a smaller request through
			}
			rm.grantContainer(app, q, nm, res, isAM)
			return true
		}
	}
	return false
}

// allocate finds an active node with room for r (most-free-first for
// spreading).
func (rm *ResourceManager) allocate(r Resource) *nodeManager {
	var best *nodeManager
	for _, nm := range rm.nodes {
		if !nm.active || !r.Fits(nm.free()) {
			continue
		}
		if best == nil || nm.free().VCores > best.free().VCores ||
			(nm.free().VCores == best.free().VCores && nm.id < best.id) {
			best = nm
		}
	}
	return best
}

// placeFor picks a node for a request: locality hosts in preference
// order first, then the emptiest node (allocate's spreading policy).
func (rm *ResourceManager) placeFor(req ContainerRequest) *nodeManager {
	for _, h := range req.Hosts {
		if nm := rm.byHost[h]; nm != nil && nm.active && req.Resource.Fits(nm.free()) {
			return nm
		}
	}
	return rm.allocate(req.Resource)
}

// grantContainer commits one allocation: charge node + queue + user,
// emit the event, and hand the container to the app's master.
func (rm *ResourceManager) grantContainer(app *Application, q *leafQueue, nm *nodeManager, res Resource, isAM bool) {
	rm.containerSeq++
	c := &Container{
		ID:        rm.containerSeq,
		App:       app,
		Node:      nm.id,
		Resource:  res,
		AM:        isAM,
		StartedAt: rm.eng.Now(),
		ctx:       app.ctx.NewChild(),
		idStr:     seqID("c", rm.containerSeq, 6),
	}
	if isAM {
		app.amContainer = c
		app.State = AppRunning
		rm.pending--
		// A node drain re-admits the app through a second AM grant; the
		// wait for the first container is measured once.
		if !app.amStarted {
			app.amStarted = true
			app.StartedAt = rm.eng.Now()
		}
	} else {
		c.Tag = app.requests[0].Tag
		if len(app.requests) == 1 {
			// Keep the array: the next Request appends into it.
			app.requests = app.requests[:0]
		} else {
			app.requests = app.requests[1:]
		}
		app.containers = append(app.containers, c)
	}
	nm.used = nm.used.plus(res)
	nm.containers = append(nm.containers, c)
	q.charge(app.User, res)
	rm.ContainersLaunched++
	rm.m.containersAllocated.Inc()
	attrs := append(make(obs.Attrs, 0, 8),
		obs.Attr{Key: "app", Value: app.idStr},
		obs.Attr{Key: "container", Value: c.idStr},
		obs.Attr{Key: "mb", Value: strconv.FormatInt(res.MemoryMB, 10)},
		obs.Attr{Key: "node", Value: nm.idStr},
		obs.Attr{Key: "queue", Value: q.path},
		obs.Attr{Key: "user", Value: app.User},
		obs.Attr{Key: "vc", Value: strconv.Itoa(res.VCores)},
	)
	if isAM {
		attrs = append(attrs, obs.Attr{Key: "am", Value: "1"})
	} else if c.Tag != "" {
		attrs = append(attrs, obs.Attr{Key: "tag", Value: c.Tag})
	}
	rm.event(EvAlloc, attrs)
	if isAM {
		rm.event(EvAMStart, obs.Attrs{
			{Key: "app", Value: app.idStr},
			{Key: "container", Value: c.idStr},
			{Key: "node", Value: nm.idStr},
		})
		return
	}
	if app.master != nil {
		app.master.OnAllocated(c)
	}
}

// taskMaster is the built-in AppMaster that drives a plain AppSpec task
// list through the capacity scheduler: one request per task (tagged with
// the task index), hold each granted container for the task's duration,
// re-request on preemption, finish the app when every task has run to
// completion.
type taskMaster struct {
	rm   *ResourceManager
	app  *Application
	done int
}

// taskEnds is a min-heap of every granted task container by the instant
// its task ends, ties in grant order: the order the engine fires their
// end events in, so each firing ends the top one. One heap serves the
// RM's task masters, and each end event runs the same bound callback,
// so once warm a grant and its end allocate nothing.
type taskEnds struct {
	h      []taskEnd
	grants uint64
	fire   func() // rm.endTask, bound once
}

type taskEnd struct {
	at    sim.Time
	grant uint64
	tm    *taskMaster
	c     *Container
}

func (e taskEnd) before(o taskEnd) bool { return e.at < o.at || e.at == o.at && e.grant < o.grant }

func (q *taskEnds) push(e taskEnd) {
	q.h = append(q.h, e)
	for i := len(q.h) - 1; i > 0 && q.h[i].before(q.h[(i-1)/2]); i = (i - 1) / 2 {
		q.h[i], q.h[(i-1)/2] = q.h[(i-1)/2], q.h[i]
	}
}

func (q *taskEnds) pop() taskEnd {
	top, n := q.h[0], len(q.h)-1
	q.h[0], q.h[n] = q.h[n], taskEnd{}
	q.h = q.h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && q.h[c+1].before(q.h[c]) {
			c++
		}
		if c >= n || !q.h[c].before(q.h[i]) {
			return top
		}
		q.h[i], q.h[c] = q.h[c], q.h[i]
		i = c
	}
}

// start enqueues every task's request, then schedules once: from the
// fix-point Submit's own pass left, new requests of one app can place
// only that app's requests, in their FIFO order — a pass only consumes
// room, so whatever else was blocked stays blocked.
func (tm *taskMaster) start() {
	for i, t := range tm.app.Spec.Tasks {
		tm.rm.enqueue(tm.app, ContainerRequest{Resource: t.Resource, Tag: strconv.Itoa(i)})
	}
	tm.rm.kick()
}

func (tm *taskMaster) OnAllocated(c *Container) {
	idx, err := strconv.Atoi(c.Tag)
	if err != nil || idx < 0 || idx >= len(tm.app.Spec.Tasks) {
		tm.rm.Release(c, "bad_tag")
		return
	}
	d := max(tm.app.Spec.Tasks[idx].Duration, 0)
	ends := &tm.rm.taskEnds
	ends.grants++
	ends.push(taskEnd{at: tm.rm.eng.Now() + d, grant: ends.grants, tm: tm, c: c})
	tm.rm.eng.After(d, ends.fire)
}

// endTask is the end event of the task in the top container of taskEnds.
func (rm *ResourceManager) endTask() {
	e := rm.taskEnds.pop()
	if e.c.Released() {
		return // preempted (and re-requested) before it could finish
	}
	e.tm.done++
	rm.Release(e.c, "complete")
	if e.tm.done == len(e.tm.app.Spec.Tasks) {
		rm.FinishApp(e.tm.app)
	}
}

func (tm *taskMaster) OnPreempted(c *Container) {
	idx, err := strconv.Atoi(c.Tag)
	if err != nil || idx < 0 || idx >= len(tm.app.Spec.Tasks) {
		return
	}
	// The attempt's work is lost; ask for a fresh container to redo it.
	tm.rm.Request(tm.app, ContainerRequest{
		Resource: tm.app.Spec.Tasks[idx].Resource,
		Tag:      c.Tag,
	})
}
