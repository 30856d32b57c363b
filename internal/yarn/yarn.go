// Package yarn implements the resource-management layer the paper's
// future work points at ("recent developments ... have moved Hadoop
// beyond MapReduce's limitations in order to support additional
// capabilities such as cluster resource manager [YARN]"): a
// ResourceManager that owns cluster capacity, NodeManagers that host
// containers, and applications that negotiate containers for their work.
//
// There is one scheduler, a multi-tenant capacity scheduler:
// hierarchical capacity queues with user limits (queue.go),
// container-level allocation driven by AppMaster callbacks
// (capacity.go), deterministic preemption of over-allocated queues
// (preempt.go), and an elastic autoscaler over the node pool
// (autoscale.go). Every decision lands in a replayable scheduler event
// log (events.go) keyed on the sim clock.
//
// Scheduling policy is a QueueConfig, not code. FIFO — the single-queue
// world whose failure mode is the paper's Fall 2012 deadline queue — is
// DefaultQueues(): one leaf, apps served in submission order. Fair
// sharing is sibling leaves with equal Capacity: the most underserved
// queue is served first, so tenants interleave.
//
// It runs on the same deterministic sim engine as the rest of the stack,
// which makes the multi-tenancy question behind the whole paper
// measurable: what happens when 35 students — or 350 — share one cluster?
package yarn

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Resource is a container's size: virtual cores and memory.
type Resource struct {
	VCores   int
	MemoryMB int64
}

// Fits reports whether r fits within free.
func (r Resource) Fits(free Resource) bool {
	return r.VCores <= free.VCores && r.MemoryMB <= free.MemoryMB
}

func (r Resource) plus(o Resource) Resource {
	return Resource{VCores: r.VCores + o.VCores, MemoryMB: r.MemoryMB + o.MemoryMB}
}

func (r Resource) minus(o Resource) Resource {
	return Resource{VCores: r.VCores - o.VCores, MemoryMB: r.MemoryMB - o.MemoryMB}
}

// upper and lower are the component-wise maximum and minimum.
func (r Resource) upper(o Resource) Resource {
	return Resource{VCores: max(r.VCores, o.VCores), MemoryMB: max(r.MemoryMB, o.MemoryMB)}
}

func (r Resource) lower(o Resource) Resource {
	return Resource{VCores: min(r.VCores, o.VCores), MemoryMB: min(r.MemoryMB, o.MemoryMB)}
}

// String renders "4vc/8192MB".
func (r Resource) String() string { return fmt.Sprintf("%dvc/%dMB", r.VCores, r.MemoryMB) }

// TaskSpec is one unit of application work: a container of the given size
// held for the given virtual duration.
type TaskSpec struct {
	Resource Resource
	Duration time.Duration
}

// AppSpec describes an application to submit.
type AppSpec struct {
	Name string
	User string
	// Queue names the leaf capacity queue (leaf segment or full dotted
	// path); empty means the "default" leaf.
	Queue string
	Tasks []TaskSpec
	// AMResource is the master container held for the app's lifetime
	// (default 1 vcore / 512 MB).
	AMResource Resource
}

// AppState is an application's lifecycle state.
type AppState int

// Application states.
const (
	AppPending AppState = iota
	AppRunning
	AppFinished
)

func (s AppState) String() string {
	switch s {
	case AppPending:
		return "PENDING"
	case AppRunning:
		return "RUNNING"
	default:
		return "FINISHED"
	}
}

// containerState tracks a container through its lifetime.
type containerState int

const (
	containerLive containerState = iota
	containerReleased
	containerPreempted
)

// Container is one granted resource lease on a node. The RM creates it
// at allocation, the owning application works inside it, and it ends by
// release (work done) or preemption (the RM took it back).
type Container struct {
	ID       int
	App      *Application
	Node     cluster.NodeID
	Resource Resource
	// AM marks the application-master container; AM containers are never
	// preempted and live until the app finishes.
	AM bool
	// Tag echoes the ContainerRequest's tag, so multiplexing AppMasters
	// (the MapReduce JobTracker) know what they asked this container for.
	Tag       string
	StartedAt sim.Time

	// ctx is the container's node in its app's trace; its span records at
	// the terminal transition (release or preemption).
	ctx obs.Ctx

	idStr string // "c000042", as events and spans name the container
	state containerState
}

// Released reports whether the container has ended (release or preempt).
func (c *Container) Released() bool { return c.state != containerLive }

// ContainerRequest asks the capacity scheduler for one container.
type ContainerRequest struct {
	Resource Resource
	// Hosts is a locality preference: nodes whose hostname matches are
	// tried first. Best effort, never a hard constraint.
	Hosts []string
	// Tag is opaque to the RM and echoed on the granted Container.
	Tag string
}

// AppMaster receives the capacity scheduler's decisions for one app.
// Implementations must be deterministic: callbacks arrive inside the
// RM's scheduling pass on the sim thread.
type AppMaster interface {
	// OnAllocated hands the app a newly granted container.
	OnAllocated(c *Container)
	// OnPreempted tells the app the RM killed the container; whatever
	// ran inside must be re-attempted (re-request a container).
	OnPreempted(c *Container)
}

// Application is a submitted app's live state.
type Application struct {
	ID   int
	Spec AppSpec
	// Queue is the resolved leaf queue path.
	Queue string
	// User is the submitting principal (default "nobody").
	User string

	State       AppState
	SubmittedAt sim.Time
	StartedAt   sim.Time
	FinishedAt  sim.Time

	// Preemptions counts containers this app lost to preemption.
	Preemptions int

	// ctx roots the app's trace (invalid when unsampled).
	ctx obs.Ctx

	idStr       string // "app00042", as events and spans name the app
	master      AppMaster
	queue       *leafQueue
	amContainer *Container
	amStarted   bool         // an AM container has been granted at least once
	containers  []*Container // live task containers, allocation order
	requests    []ContainerRequest
}

// WaitTime returns how long the app waited for its first container.
func (a *Application) WaitTime() time.Duration { return a.StartedAt - a.SubmittedAt }

// Makespan returns submission-to-finish time.
func (a *Application) Makespan() time.Duration { return a.FinishedAt - a.SubmittedAt }

// Containers returns the app's live task containers in allocation order.
func (a *Application) Containers() []*Container {
	return append([]*Container(nil), a.containers...)
}

// PendingRequests returns the number of outstanding container requests.
func (a *Application) PendingRequests() int { return len(a.requests) }

// nodeManager tracks one node's container capacity.
type nodeManager struct {
	id       cluster.NodeID
	idStr    string // the id as events and spans print it
	hostname string
	capacity Resource
	used     Resource
	// active nodes accept allocations; the autoscaler parks the rest.
	active bool
	// containers live on this node, allocation order.
	containers []*Container
}

func (nm *nodeManager) free() Resource { return nm.capacity.minus(nm.used) }

// without returns list minus c, order preserved.
func without(list []*Container, c *Container) []*Container {
	for i, x := range list {
		if x == c {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// CapacityOptions configures a ResourceManager.
type CapacityOptions struct {
	// Queues is the hierarchical queue tree (DefaultQueues() when zero).
	Queues QueueConfig
	// Preemption enables and tunes the preemption monitor.
	Preemption PreemptionConfig
	// Autoscale enables and tunes the elastic node pool.
	Autoscale AutoscaleConfig
	// Obs receives the scheduler's metrics (optional).
	Obs *obs.Registry
}

// ResourceManager owns the cluster's resources and runs the scheduler.
type ResourceManager struct {
	eng *sim.Engine

	nodes []*nodeManager
	apps  []*Application
	next  int

	// Constants of the topology. byHost resolves a locality hint to the
	// lowest-numbered node of that hostname; poolCap sums the whole pool,
	// active or not (admission control is against what the cluster *could*
	// grow to); largest is the component-wise largest node.
	byHost           map[string]*nodeManager
	poolCap, largest Resource

	// ContainersLaunched counts all container starts (AM + tasks).
	ContainersLaunched int

	leaves       []*leafQueue // path-sorted
	order        []*leafQueue // allocateOne's scratch: leaves, most underserved first
	preemptCfg   PreemptionConfig
	autoscaleCfg AutoscaleConfig
	log          *history.Log
	m            rmMetrics
	containerSeq int
	inPass       bool
	passDirty    bool
	preemptions  int
	appsFinished int
	// minAsk is the component-wise smallest container size ever asked for
	// (AM or task): a lower bound on every head request, so when it does
	// not fit the cluster's free room a pass has nothing to place.
	minAsk Resource
	// pending counts apps in AppPending: up at submit and when a node
	// drain takes an AM, down at an AM grant and when a pending app
	// finishes.
	pending int

	// autoscaler accounting
	lastScaleUp     sim.Time
	lastScaleDown   sim.Time
	lastAccrue      sim.Time
	nodeNanoseconds float64
}

// NewCapacityResourceManager builds a multi-tenant RM: hierarchical
// capacity queues, container-level allocation, preemption and (when
// enabled) an elastic node pool. The topology is the *maximum* pool; with
// autoscaling enabled only Autoscale.MinNodes start active.
func NewCapacityResourceManager(eng *sim.Engine, topo *cluster.Topology, opts CapacityOptions) (*ResourceManager, error) {
	queues := opts.Queues
	if queues.Name == "" && len(queues.Children) == 0 {
		queues = DefaultQueues()
	}
	leaves, err := buildLeaves(queues)
	if err != nil {
		return nil, err
	}
	rm := &ResourceManager{
		eng:          eng,
		leaves:       leaves,
		preemptCfg:   opts.Preemption.withDefaults(),
		autoscaleCfg: opts.Autoscale.withDefaults(topo.Len()),
		m:            newRMMetrics(opts.Obs),
		byHost:       map[string]*nodeManager{},
		minAsk:       Resource{VCores: math.MaxInt, MemoryMB: math.MaxInt64},
	}
	rm.log = history.NewLog(rm.m.events)
	initial := topo.Len()
	if rm.autoscaleCfg.Enabled {
		initial = rm.autoscaleCfg.MinNodes
	}
	for i, n := range topo.Nodes() {
		nm := &nodeManager{
			id:       n.ID,
			idStr:    strconv.Itoa(int(n.ID)),
			hostname: n.Hostname,
			capacity: Resource{VCores: n.Cores, MemoryMB: n.RAMBytes >> 20},
			active:   i < initial,
		}
		rm.nodes = append(rm.nodes, nm)
		if rm.byHost[nm.hostname] == nil {
			rm.byHost[nm.hostname] = nm
		}
		rm.poolCap = rm.poolCap.plus(nm.capacity)
		rm.largest = rm.largest.upper(nm.capacity)
	}
	rm.m.activeNodes.Set(int64(initial))
	rm.logInit()
	if rm.preemptCfg.Enabled {
		eng.Every(preemptInterval, rm.runPreemption)
	}
	if rm.autoscaleCfg.Enabled {
		eng.Every(autoscaleInterval, rm.runAutoscale)
	}
	return rm, nil
}

// ClusterCapacity returns the summed capacity of the active node pool.
func (rm *ResourceManager) ClusterCapacity() Resource {
	var total Resource
	for _, nm := range rm.nodes {
		if nm.active {
			total = total.plus(nm.capacity)
		}
	}
	return total
}

// ActiveNodes returns the size of the active node pool.
func (rm *ResourceManager) ActiveNodes() int {
	n := 0
	for _, nm := range rm.nodes {
		if nm.active {
			n++
		}
	}
	return n
}

// Utilization returns the fraction of active vcores currently allocated.
func (rm *ResourceManager) Utilization() float64 {
	var used, capTotal int
	for _, nm := range rm.nodes {
		if !nm.active {
			continue
		}
		used += nm.used.VCores
		capTotal += nm.capacity.VCores
	}
	if capTotal == 0 {
		return 0
	}
	return float64(used) / float64(capTotal)
}

// Preemptions returns the number of containers killed by preemption.
func (rm *ResourceManager) Preemptions() int { return rm.preemptions }

// EventLog returns the scheduler's replayable event log.
func (rm *ResourceManager) EventLog() *history.Log { return rm.log }

// Submit registers an application whose task list the built-in task
// driver runs: one container request per task through the app's queue.
func (rm *ResourceManager) Submit(spec AppSpec) (*Application, error) {
	if len(spec.Tasks) == 0 {
		return nil, errors.New("yarn: application has no tasks")
	}
	app, err := rm.SubmitManaged(spec, nil)
	if err != nil {
		return nil, err
	}
	tm := &taskMaster{rm: rm, app: app}
	app.master = tm
	tm.start()
	return app, nil
}

// SubmitManaged registers an application driven by an external
// AppMaster. The RM launches the AM container through the app's queue;
// the master then negotiates task containers with Request.
func (rm *ResourceManager) SubmitManaged(spec AppSpec, master AppMaster) (*Application, error) {
	if err := rm.validateSpec(&spec); err != nil {
		return nil, err
	}
	q, err := findLeaf(rm.leaves, spec.Queue)
	if err != nil {
		return nil, err
	}
	if spec.User == "" {
		spec.User = "nobody"
	}
	rm.next++
	app := &Application{
		ID:          rm.next,
		Spec:        spec,
		Queue:       q.path,
		User:        spec.User,
		SubmittedAt: rm.eng.Now(),
		idStr:       fmt.Sprintf("app%05d", rm.next),
		master:      master,
		queue:       q,
	}
	app.ctx = rm.m.reg.NewTrace(time.Duration(app.SubmittedAt))
	rm.apps = append(rm.apps, app)
	rm.pending++
	rm.minAsk = rm.minAsk.lower(spec.AMResource)
	q.apps = append(q.apps, app)
	rm.m.appsSubmitted.Inc()
	rm.event(EvAppSubmit, map[string]string{
		"app": app.idStr, "name": spec.Name, "queue": q.path, "user": spec.User,
		"tasks": strconv.Itoa(len(spec.Tasks)),
	})
	rm.kick()
	return app, nil
}

func (rm *ResourceManager) validateSpec(spec *AppSpec) error {
	if spec.AMResource == (Resource{}) {
		spec.AMResource = Resource{VCores: 1, MemoryMB: 512}
	}
	if !spec.AMResource.Fits(rm.poolCap) {
		return fmt.Errorf("yarn: AM container %v exceeds cluster capacity %v", spec.AMResource, rm.poolCap)
	}
	for i, tk := range spec.Tasks {
		if !tk.Resource.Fits(rm.largest) {
			return fmt.Errorf("yarn: task %d container %v exceeds largest node", i, tk.Resource)
		}
	}
	return nil
}

// Request asks for one more container for app. The request queues FIFO
// per app and is served subject to the app's queue capacity and user
// limit.
func (rm *ResourceManager) Request(app *Application, req ContainerRequest) {
	if app.State == AppFinished {
		return
	}
	rm.enqueue(app, req)
	rm.kick()
}

// enqueue appends req to app's FIFO request queue; the caller kicks.
func (rm *ResourceManager) enqueue(app *Application, req ContainerRequest) {
	if req.Resource == (Resource{}) {
		req.Resource = Resource{VCores: 1, MemoryMB: 1024}
	}
	rm.minAsk = rm.minAsk.lower(req.Resource)
	app.requests = append(app.requests, req)
}

// CancelRequests removes up to n outstanding requests with the given tag
// from the back of app's request queue, returning how many were removed.
// AppMasters use it to withdraw demand that completed another way.
func (rm *ResourceManager) CancelRequests(app *Application, tag string, n int) int {
	removed := 0
	for i := len(app.requests) - 1; i >= 0 && removed < n; i-- {
		if app.requests[i].Tag == tag {
			app.requests = append(app.requests[:i], app.requests[i+1:]...)
			removed++
		}
	}
	return removed
}

// endContainer is the one container-teardown routine. It marks c's
// terminal state, returns its resources to node, app, queue and user,
// records the allocation-to-terminal span under the app's trace, bumps
// counter (nil for none) and logs evType. The event carries for_queue
// when a starved queue is the beneficiary and reason otherwise.
func (rm *ResourceManager) endContainer(c *Container, state containerState, counter *obs.Counter, evType, reason, forQueue string) {
	c.state = state
	nm := rm.nodes[c.Node]
	nm.used = nm.used.minus(c.Resource)
	nm.containers = without(nm.containers, c)
	c.App.containers = without(c.App.containers, c) // no-op for an AM
	c.App.queue.uncharge(c.App.User, c.Resource)
	span := map[string]string{
		"container": c.idStr,
		"app":       c.App.idStr,
		"node":      nm.idStr,
		"reason":    reason,
	}
	if c.AM {
		span["am"] = "1"
	}
	c.ctx.End("yarn.container", time.Duration(c.StartedAt), time.Duration(rm.eng.Now()), span)
	counter.Inc()
	attrs := map[string]string{
		"container": c.idStr,
		"app":       c.App.idStr,
		"queue":     c.App.Queue,
		"node":      nm.idStr,
	}
	if forQueue != "" {
		attrs["for_queue"] = forQueue
	} else {
		attrs["reason"] = reason
	}
	rm.event(evType, attrs)
}

// release ends a live container whose work is done.
func (rm *ResourceManager) release(c *Container, reason string) {
	rm.endContainer(c, containerReleased, rm.m.containersReleased, EvRelease, reason, "")
}

// Release returns a task container to the pool.
func (rm *ResourceManager) Release(c *Container, reason string) {
	if c == nil || c.state != containerLive || c.AM {
		return
	}
	rm.release(c, reason)
	rm.kick()
}

// FinishApp marks a managed app complete: leftover containers and the AM
// are released and the app leaves its queue.
func (rm *ResourceManager) FinishApp(app *Application) {
	if app.State == AppFinished {
		return
	}
	for _, c := range append([]*Container(nil), app.containers...) {
		rm.release(c, "app_finish")
	}
	if am := app.amContainer; am != nil && am.state == containerLive {
		rm.release(am, "app_finish")
	}
	app.requests = nil
	if app.State == AppPending {
		rm.pending--
	}
	app.State = AppFinished
	app.FinishedAt = rm.eng.Now()
	app.queue.removeApp(app)
	rm.appsFinished++
	rm.m.appsFinished.Inc()
	app.ctx.End("yarn.app", time.Duration(app.SubmittedAt), time.Duration(app.FinishedAt), map[string]string{
		"app":   app.idStr,
		"queue": app.Queue,
		"user":  app.User,
	})
	rm.event(EvAppFinish, map[string]string{
		"app": app.idStr, "queue": app.Queue,
		"wait_ns":     strconv.FormatInt(int64(app.WaitTime()), 10),
		"makespan_ns": strconv.FormatInt(int64(app.Makespan()), 10),
	})
	rm.kick()
}

// SetNodeActive changes one node's pool membership at runtime — the hook
// node-level faults use (a dead TaskTracker drains its node). Deactivating
// a node preempts every container on it; reactivating returns it to the
// allocatable pool.
func (rm *ResourceManager) SetNodeActive(id cluster.NodeID, active bool) {
	if int(id) < 0 || int(id) >= len(rm.nodes) {
		return
	}
	nm := rm.nodes[id]
	if nm.active == active {
		return
	}
	rm.accrueNodeTime()
	nm.active = active
	if active {
		rm.logNodeUp(nm, "admin")
	} else {
		// Drain: every container on the node dies and its work re-attempts
		// elsewhere. AM containers finish the app's admission over again.
		for _, c := range append([]*Container(nil), nm.containers...) {
			if c.state != containerLive {
				continue
			}
			if c.AM {
				rm.endContainer(c, containerPreempted, nil, EvRelease, "node_drain", "")
				c.App.amContainer = nil
				c.App.State = AppPending
				rm.pending++
				continue
			}
			rm.preemptContainer(c, "")
		}
		rm.logNodeDown(nm, "admin")
	}
	rm.m.activeNodes.Set(int64(rm.ActiveNodes()))
	rm.kick()
}

// Apps returns all applications in submission order.
func (rm *ResourceManager) Apps() []*Application {
	out := append([]*Application(nil), rm.apps...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AllFinished reports whether every submitted app reached AppFinished.
func (rm *ResourceManager) AllFinished() bool { return rm.appsFinished == len(rm.apps) }
