package mrcluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/iofmt"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/yarn"
)

type taskState int

const (
	taskPending taskState = iota
	taskRunning
	taskDone
)

// taskKind indexes the per-kind state the trackers and job runs keep
// (slots in use, completed-attempt durations).
type taskKind int

const (
	kindMap taskKind = iota
	kindReduce
)

// attemptKind is one row of the JobTracker's per-kind table: everything
// in an attempt's lifecycle that differs between map and reduce in name
// only, plus the one step that genuinely differs — launch, which runs the
// kind's user code and plans the attempt's outcome. The table is built
// once per JobTracker (newJobTracker) because the metric handles are.
type attemptKind struct {
	idx         taskKind
	name        string        // history and span "kind", first letter tags task ids
	span        string        // attempt span name
	hasLocality bool          // attempts carry an input-locality rank
	slotCap     int           // per-tracker slots (slot mode)
	container   yarn.Resource // per-attempt container (YARN mode)
	ctrLaunched string
	ctrFailed   string
	launched    *obs.Counter
	failed      *obs.Counter
	attemptTime *obs.Histogram
	// launch starts an attempt of t on tt, reporting whether it actually
	// started.
	launch func(t *task, tt *TaskTracker, speculative bool, c *yarn.Container) bool
}

type task struct {
	jr    *jobRun
	kind  *attemptKind
	idx   int
	split mapreduce.FileSplit // map tasks only

	state      taskState
	failures   int
	attemptSeq int
	attempts   []*attempt // currently running attempts

	output   *mapreduce.MapOutput // completed map output
	outputOn cluster.NodeID

	// ctx parents every attempt of this task in the job's trace; it is
	// allocated lazily at the first attempt launch (firstStart), and its
	// span records when the task completes.
	ctx        obs.Ctx
	firstStart sim.Time

	cachedID string // interned id(): built once, reused by every event
}

func (t *task) id() string {
	if t.cachedID == "" {
		t.cachedID = fmt.Sprintf("task_%s_%s_%06d", t.jr.id, t.kind.name[:1], t.idx)
	}
	return t.cachedID
}

type attempt struct {
	t           *task
	tt          *TaskTracker
	seq         int
	speculative bool
	locality    int // 0 data-local, 1 rack-local, 2 remote (maps)
	startedAt   sim.Time
	timer       sim.Timer
	dead        bool
	tempPath    string // reduce attempts: uncommitted output
	// ctx is the attempt's node in the job trace: a child of the task
	// span, parent of the attempt's shuffle and HDFS spans.
	ctx obs.Ctx
	// container hosts the attempt in YARN mode (nil in slot mode).
	container *yarn.Container

	cachedID string // interned id(), same pattern as task.cachedID
}

func (a *attempt) id() string {
	if a.cachedID == "" {
		a.cachedID = fmt.Sprintf("attempt_%s_%d", a.t.id(), a.seq)
	}
	return a.cachedID
}

type jobState int

const (
	jobRunning jobState = iota
	jobSucceeded
	jobFailed
)

type jobRun struct {
	id  string
	job *mapreduce.Job

	maps    []*task
	reduces []*task

	mapsDone    int
	reducesDone int
	state       jobState
	err         error

	counters    *mapreduce.Counters
	submittedAt sim.Time
	mapsDoneAt  sim.Time
	finishedAt  sim.Time

	durations [2][]time.Duration // completed attempts' run times, by kind

	// scratch is the map-side collect/sort buffer every map attempt of the
	// job runs on, one after another (the engine is single-threaded), and
	// reduceScratch the reduce attempts' merge and part buffer. Each is
	// allocated by the first attempt of its kind and dropped when the job
	// ends.
	scratch       *mapreduce.MapScratch
	reduceScratch *mapreduce.ReduceScratch

	// hist is the job's history file in the making: every lifecycle event
	// from submit to finish, persisted into HDFS when the job completes.
	hist *history.Log

	// ctx roots the job's trace (the zero Ctx when head sampling dropped
	// it: then no span of the job is recorded; its history file still is).
	ctx obs.Ctx

	// YARN mode: the job's application handle plus the outstanding
	// (unserved) container-request counts syncRequests reconciles.
	app  *yarn.Application
	reqs [2]int

	handle *JobHandle
}

// JobHandle tracks an in-flight job.
type JobHandle struct {
	jr *jobRun
}

// Done reports whether the job reached a terminal state.
func (h *JobHandle) Done() bool { return h.jr.state != jobRunning }

// Err returns the terminal error, if the job failed.
func (h *JobHandle) Err() error {
	if h.jr.state == jobFailed {
		return h.jr.err
	}
	return nil
}

// Report returns the job report (nil until Done).
func (h *JobHandle) Report() *Report {
	if !h.Done() {
		return nil
	}
	return buildReport(h.jr)
}

// JobTracker schedules tasks onto TaskTrackers, preferring data-local
// assignments using the NameNode's block locations, and handles retries,
// tracker loss and speculative execution.
type JobTracker struct {
	mc  *MRCluster
	rng *sim.Rand

	// hostToNode is lookup-only (never ranged): map iteration order must
	// not reach scheduling, so every decision loop below walks the
	// node-ordered mc.trackers slice or the submission-ordered live
	// slice instead of a map.
	hostToNode map[string]cluster.NodeID

	// jobs is every job ever submitted, for the status pages. live is its
	// sub-list of jobs still running, in submission order: submit appends,
	// endJob removes, both where jobRun.state changes, so a scheduling loop
	// over live sees exactly the jobs whose state is jobRunning — and an
	// idle cluster's heartbeats find nothing to walk.
	jobs   []*jobRun
	live   []*jobRun
	jobSeq int
	faults []TaskFault
	// walks counts the schedule() calls that found a live job and went on
	// to walk the cluster; mr.jt.schedule_passes counts every call.
	walks int

	// containerAttempts maps a live container's ID to the attempt running
	// inside it (YARN mode; lookup-only, never ranged).
	containerAttempts map[int]*attempt

	// m holds the JobTracker's interned metric handles (see metrics.go);
	// spans land on the cluster's shared registry.
	m jtMetrics

	// ticker drives the tracker-expiry check (see start).
	ticker *sim.Ticker

	mapKind, reduceKind *attemptKind
	// mapLocality counts completed maps by locality rank (0 data-local, 1
	// rack-local, 2 remote): the job counter's name and the metric.
	mapLocality [3]localityCounter
}

type localityCounter struct {
	ctr string
	n   *obs.Counter
}

func newJobTracker(mc *MRCluster, rng *sim.Rand) *JobTracker {
	jt := &JobTracker{
		mc:                mc,
		rng:               rng,
		hostToNode:        map[string]cluster.NodeID{},
		containerAttempts: map[int]*attempt{},
		m:                 newJTMetrics(mc.Obs),
	}
	for _, n := range mc.Topology.Nodes() {
		jt.hostToNode[n.Hostname] = n.ID
	}
	jt.mapKind = &attemptKind{
		idx: kindMap, name: tagMap, span: SpanMapAttempt, hasLocality: true,
		slotCap: mc.cfg.MapSlotsPerNode, container: mapContainer,
		ctrLaunched: mapreduce.CtrLaunchedMaps, ctrFailed: mapreduce.CtrFailedMaps,
		launched: mc.Obs.Counter(MetricJTMapsLaunched), failed: mc.Obs.Counter("mr.jt.maps_failed"),
		attemptTime: mc.Obs.Histogram("mr.map_attempt_time"),
		launch:      jt.runMapAttempt,
	}
	jt.reduceKind = &attemptKind{
		idx: kindReduce, name: tagReduce, span: SpanReduceAttempt,
		slotCap: reduceSlotsPerNode, container: reduceContainer,
		ctrLaunched: mapreduce.CtrLaunchedReduces, ctrFailed: mapreduce.CtrFailedReduces,
		launched: mc.Obs.Counter(MetricJTReducesLaunched), failed: mc.Obs.Counter("mr.jt.reduces_failed"),
		attemptTime: mc.Obs.Histogram("mr.reduce_attempt_time"),
		launch:      jt.runReduceAttempt,
	}
	jt.mapLocality = [3]localityCounter{
		{mapreduce.CtrDataLocalMaps, mc.Obs.Counter(MetricJTMapsDataLocal)},
		{mapreduce.CtrRackLocalMaps, mc.Obs.Counter(MetricJTMapsRackLocal)},
		{mapreduce.CtrRemoteMaps, mc.Obs.Counter(MetricJTMapsRemote)},
	}
	return jt
}

func (jt *JobTracker) start() {
	jt.ticker = jt.mc.Engine.Every(jt.mc.cfg.HeartbeatInterval, func() {
		jt.checkTrackerLiveness()
		jt.schedule()
	})
}

// Shutdown stops the JobTracker daemon: tracker liveness is no longer
// checked and nothing is scheduled on its own clock again. Final — a
// JobTracker does not restart.
func (jt *JobTracker) Shutdown() { jt.ticker.Stop() }

func (jt *JobTracker) heartbeat(tt *TaskTracker) {
	tt.lastHeartbeat = jt.mc.Engine.Now()
	jt.schedule()
}

func (jt *JobTracker) checkTrackerLiveness() {
	now := jt.mc.Engine.Now()
	for _, tt := range jt.mc.trackers {
		stale := now-tt.lastHeartbeat > jt.mc.cfg.TrackerExpiry
		if (stale || !tt.alive) && !tt.lossHandled {
			jt.handleTrackerLoss(tt)
		}
	}
}

// handleTrackerLoss reschedules everything the lost tracker was doing or
// holding: running attempts die, completed map outputs evaporate, and any
// reduce attempt that would shuffle from the node must restart.
func (jt *JobTracker) handleTrackerLoss(tt *TaskTracker) {
	tt.lossHandled = true
	tt.alive = false
	if tt.hbTicker != nil {
		tt.hbTicker.Stop()
	}
	jt.m.trackerLosses.Inc()
	if jt.yarnMode() {
		// Drain the node from the RM pool before rescheduling: its
		// containers are preempted (killing the attempts inside via
		// OnPreempted) and nothing new lands on the dead node.
		jt.mc.cfg.YARN.SetNodeActive(tt.id, false)
	}
	for _, jr := range jt.live {
		lostOutputs := false
		for _, t := range jr.maps {
			// Kill running attempts on the lost tracker.
			for _, a := range append([]*attempt(nil), t.attempts...) {
				if a.tt == tt {
					jt.killAttempt(a, "tracker lost")
				}
			}
			// Completed map output on the lost node must be recomputed.
			if t.state == taskDone && t.outputOn == tt.id {
				t.state = taskPending
				t.output = nil
				jr.mapsDone--
				lostOutputs = true
			}
		}
		for _, t := range jr.reduces {
			for _, a := range append([]*attempt(nil), t.attempts...) {
				if a.tt == tt || lostOutputs {
					jt.killAttempt(a, "shuffle source lost")
				}
			}
		}
	}
	jt.schedule()
}

// killAttempt cancels a running attempt without charging a failure.
func (jt *JobTracker) killAttempt(a *attempt, reason string) {
	if a.dead {
		return
	}
	a.t.jr.counters.Inc(mapreduce.CtrKilledTaskAttempts, 1)
	jt.m.attemptsKilled.Inc()
	jt.abandon(a, history.EvAttemptKill, reason)
}

// abandon ends an attempt that will not complete — killed or failed, as
// evType says, for reason why: its outcome event is cancelled, its slot
// and container go back, any reduce output it staged is discarded, its end
// is recorded, and its task is pending again unless a sibling still runs.
func (jt *JobTracker) abandon(a *attempt, evType, why string) {
	a.dead = true
	a.timer.Cancel()
	jt.releaseSlot(a)
	release := "failed"
	if evType == history.EvAttemptKill {
		release = "killed"
	}
	jt.releaseContainer(a, release)
	a.t.removeAttempt(a)
	if a.tempPath != "" {
		// Best-effort GC of the attempt's temp output: nothing was acked
		// from it, so a failed delete costs only disk, not data.
		//lint:ignore commiterr abandoned-attempt temp output is unacked; delete is best-effort
		_ = jt.mc.DFS.Client(a.tt.id).Remove(a.tempPath, false)
		a.tempPath = ""
	}
	jt.attemptEnded(a, evType, why)
	if a.t.state == taskRunning && len(a.t.attempts) == 0 {
		a.t.state = taskPending
	}
}

// --- the attempt record: job history (internal/history) and spans ---

// histEv appends one event to a job's history log at the current sim time.
func (jt *JobTracker) histEv(jr *jobRun, typ string, attrs map[string]string) {
	jr.hist.Append(time.Duration(jt.mc.Engine.Now()), typ, attrs)
}

// attemptAttrs is what an attempt's start event and its span both say.
func attemptAttrs(a *attempt) map[string]string {
	attrs := map[string]string{"attempt": a.id(), "job": a.t.jr.id, "node": a.tt.node.Hostname}
	if a.t.kind.hasLocality {
		attrs["locality"] = fmt.Sprint(a.locality)
	}
	if a.speculative {
		attrs["speculative"] = "true"
	}
	return attrs
}

// attemptStarted records an attempt launch in the job's history. shuffle
// is the modelled shuffle time (reduces only; pass <0 for maps).
func (jt *JobTracker) attemptStarted(a *attempt, shuffle time.Duration) {
	attrs := attemptAttrs(a)
	attrs["task"], attrs["kind"] = a.t.id(), a.t.kind.name
	if shuffle >= 0 {
		attrs["shuffle_ns"] = fmt.Sprint(int64(shuffle))
	}
	jt.histEv(a.t.jr, history.EvAttemptStart, attrs)
}

// attemptEnded records an attempt's end — finished, failed or killed, as
// evType says, for reason why — once: the terminal history event every
// attempt timeline is built from, and the attempt's span for its trace.
func (jt *JobTracker) attemptEnded(a *attempt, evType, why string) {
	outcome, ev := "succeeded", map[string]string{"attempt": a.id(), "job": a.t.jr.id}
	switch evType {
	case history.EvAttemptFail:
		outcome, ev["error"] = "failed", why
	case history.EvAttemptKill:
		outcome, ev["reason"] = "killed:"+why, why
	}
	attrs := attemptAttrs(a)
	attrs["outcome"] = outcome
	a.ctx.End(a.t.kind.span, time.Duration(a.startedAt), time.Duration(jt.mc.Engine.Now()), attrs)
	jt.histEv(a.t.jr, evType, ev)
}

// persistHistory writes the finished job's history file into HDFS under
// /history/<jobid>/, as real Hadoop's JobHistory does. Best effort: a
// cluster too degraded to store history still reports the job's outcome.
func (jt *JobTracker) persistHistory(jr *jobRun) {
	data, err := jr.hist.Bytes()
	if err != nil {
		return
	}
	client := jt.mc.DFS.Client(GatewayForSubmit)
	if err := client.Mkdir(history.Dir(jr.id)); err != nil {
		return
	}
	if err := vfs.WriteFile(client, history.EventsPath(jr.id), data); err != nil {
		return
	}
	jt.m.historyFilesPersisted.Inc()
	jt.m.historyBytesPersisted.Add(int64(len(data)))
	// The job's trace export lands beside the history file — same dir,
	// same lifecycle, same byte-stability contract.
	if spans := jt.mc.Obs.SpansTraced(jr.ctx.Trace()); len(spans) > 0 {
		tdata, err := history.Marshal(spans)
		if err != nil {
			return
		}
		if err := vfs.WriteFile(client, trace.Path(jr.id), tdata); err != nil {
			return
		}
		jt.m.tracesPersisted.Inc()
	}
}

func (t *task) removeAttempt(a *attempt) {
	for i, x := range t.attempts {
		if x == a {
			t.attempts = append(t.attempts[:i], t.attempts[i+1:]...)
			return
		}
	}
}

func (jt *JobTracker) releaseSlot(a *attempt) {
	if !a.tt.alive {
		return // slots reset when the tracker restarts
	}
	a.tt.slotsUsed[a.t.kind.idx]--
}

// --- submission ---

func (jt *JobTracker) submit(job *mapreduce.Job) (*JobHandle, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	gw := jt.mc.DFS.Client(GatewayForSubmit)
	if vfs.Exists(gw, job.OutputPath) {
		return nil, &vfs.PathError{Op: "submit", Path: job.OutputPath, Err: vfs.ErrExist}
	}
	splits, err := mapreduce.ComputeSplits(gw, job.InputPaths, job.EffectiveSplitSize())
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("mrcluster: no input data under %v", job.InputPaths)
	}
	jt.jobSeq++
	jr := &jobRun{
		id:          fmt.Sprintf("job_%s_%04d", sanitize(job.Name), jt.jobSeq),
		job:         job,
		counters:    mapreduce.NewCounters(),
		submittedAt: jt.mc.Engine.Now(),
		hist:        history.NewLog(jt.m.historyEvents),
	}
	jr.ctx = jt.mc.Obs.NewTrace(time.Duration(jr.submittedAt))
	for i, s := range splits {
		jr.maps = append(jr.maps, &task{jr: jr, kind: jt.mapKind, idx: i, split: s})
	}
	for r := 0; r < job.Reducers(); r++ {
		jr.reduces = append(jr.reduces, &task{jr: jr, kind: jt.reduceKind, idx: r})
	}
	jr.handle = &JobHandle{jr: jr}
	if jt.yarnMode() {
		if err := jt.submitApp(jr); err != nil {
			return nil, err
		}
	}
	jt.jobs = append(jt.jobs, jr)
	jt.live = append(jt.live, jr)
	jt.m.jobsSubmitted.Inc()
	jt.histEv(jr, history.EvJobSubmit, map[string]string{
		"job": jr.id, "name": job.Name, "user": hdfs.DefaultUser,
	})
	jt.histEv(jr, history.EvJobInit, map[string]string{
		"job":     jr.id,
		"maps":    fmt.Sprint(len(jr.maps)),
		"reduces": fmt.Sprint(len(jr.reduces)),
	})
	jt.schedule()
	return jr.handle, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// GatewayForSubmit is where job submission runs (the login node).
const GatewayForSubmit = cluster.NodeID(-1)

// cacheFS overlays a TaskTracker's localised side files on the HDFS
// client: cached paths are served from node-local memory, everything else
// passes through (and is metered as usual).
type cacheFS struct {
	vfs.FileSystem
	cache map[string][]byte
}

func (c *cacheFS) Open(path string) (io.ReadCloser, error) {
	if data, ok := c.cache[vfs.Clean(path)]; ok {
		return vfs.BytesFile(data), nil
	}
	return c.FileSystem.Open(path)
}

// --- scheduling ---

// runningMapAttempts counts map attempts currently occupying slots —
// the concurrent-reader count for the shared-storage contention model.
func (jt *JobTracker) runningMapAttempts() int {
	n := 0
	for _, tt := range jt.mc.trackers {
		if tt.alive {
			n += tt.slotsUsed[kindMap]
		}
	}
	return n
}

// localityRank scores a map task for a tracker: 0 data-local, 1 rack-local,
// 2 remote.
func (jt *JobTracker) localityRank(t *task, tt *TaskTracker) int {
	rank := 2
	for _, h := range t.split.Hosts {
		id, ok := jt.hostToNode[h]
		if !ok {
			continue
		}
		if id == tt.id {
			return 0
		}
		if jt.mc.Topology.RackOf(id) == jt.mc.Topology.RackOf(tt.id) {
			rank = 1
		}
	}
	return rank
}

func (jt *JobTracker) schedule() {
	jt.m.schedulePasses.Inc()
	if len(jt.live) == 0 {
		return // every loop below is over live jobs, in slot and YARN mode alike
	}
	jt.walks++
	if jt.yarnMode() {
		// YARN mode: no slot loops — reconcile container demand with the
		// RM; allocations arrive via jtAppMaster.OnAllocated.
		jt.syncRequests()
		return
	}
	// Map assignment in three locality rounds: first give every free slot
	// its data-local tasks, then rack-local, then anything. Assigning
	// strictly by rank keeps a slot from greedily stealing a task that is
	// local to another node — the matching that makes HDFS data locality
	// pay off.
	for rank := 0; rank <= 2; rank++ {
		for _, tt := range jt.mc.trackers {
			if !tt.alive {
				continue
			}
			for tt.slotsUsed[kindMap] < jt.mapKind.slotCap {
				best := jt.pickMapTaskAtRank(tt, rank)
				if best == nil {
					break
				}
				jt.runMapAttempt(best, tt, false, nil)
			}
		}
	}
	// Reduce assignment: only once a job's maps are all complete.
	for _, tt := range jt.mc.trackers {
		if !tt.alive {
			continue
		}
		for tt.slotsUsed[kindReduce] < jt.reduceKind.slotCap {
			var pick *task
			for _, jr := range jt.live {
				if jr.mapsDone < len(jr.maps) {
					continue
				}
				if pick = firstPending(jr.reduces); pick != nil {
					break
				}
			}
			if pick == nil || !jt.runReduceAttempt(pick, tt, false, nil) {
				break
			}
		}
	}
	if jt.mc.cfg.Speculative {
		jt.speculate()
	}
}

// firstPending returns the first pending task of tasks, or nil.
func firstPending(tasks []*task) *task {
	for _, t := range tasks {
		if t.state == taskPending {
			return t
		}
	}
	return nil
}

func (jt *JobTracker) pickMapTaskAtRank(tt *TaskTracker, rank int) *task {
	for _, jr := range jt.live {
		for _, t := range jr.maps {
			if t.state != taskPending {
				continue
			}
			if jt.localityRank(t, tt) <= rank {
				return t
			}
		}
	}
	return nil
}

// slowdown returns the straggler multiplier for a node.
func (jt *JobTracker) slowdown(id cluster.NodeID) float64 {
	if f, ok := jt.mc.slow[id]; ok && f > 0 {
		return f
	}
	return 1
}

// pickFault returns the armed fault for a job attempt in the given scope,
// if it fires. The random draw happens only for matching faults, so arming
// a fault for one job/scope never perturbs another's schedule.
func (jt *JobTracker) pickFault(jr *jobRun, scope TaskScope) *TaskFault {
	for i := range jt.faults {
		f := &jt.faults[i]
		if f.JobName == jr.job.Name && f.Scope == scope && jt.rng.Bernoulli(f.Probability) {
			return f
		}
	}
	return nil
}

// --- the attempt lifecycle ---
//
// Every attempt, map or reduce, goes through the same four steps: launch
// bookkeeping (newAttempt), the kind's own body (runMapAttempt /
// runReduceAttempt: run the user code now over real data, model how long
// it took), one outcome event on the sim clock (armOutcome), and then
// exactly one of completeAttempt, failAttempt or killAttempt.

// attemptPlan is what an attempt's body hands to armOutcome: when the
// outcome lands and what completing the attempt commits.
type attemptPlan struct {
	duration time.Duration       // launch to successful completion
	counters *mapreduce.Counters // the task's counters, merged into the job's on success
	commit   func() error        // the kind-specific half of completion
	err      error               // the attempt's own failure (user code or I/O) ...
	errAfter time.Duration       // ... and how far into the attempt it surfaces
	faults   []faultPoint        // where an injected fault may strike, in draw order
}

// faultPoint is one phase of an attempt an armed TaskFault can strike: a
// fault in scope fires AfterFraction of the way through phase.
type faultPoint struct {
	scope TaskScope
	phase time.Duration
	what  string
}

const injectedTaskError = "injected task error (heap exhaustion)"

// newAttempt is the launch bookkeeping: claim the slot, number the
// attempt, index its container, count the launch, and hang the attempt in
// the job trace — the task's trace node is allocated lazily on its first
// attempt (that launch instant is what the eventual mr.task span starts
// at), and the attempt becomes its child.
func (jt *JobTracker) newAttempt(t *task, tt *TaskTracker, speculative bool, c *yarn.Container) *attempt {
	k, jr := t.kind, t.jr
	tt.slotsUsed[k.idx]++
	t.attemptSeq++
	a := &attempt{
		t: t, tt: tt, seq: t.attemptSeq,
		speculative: speculative,
		startedAt:   jt.mc.Engine.Now(),
		container:   c,
	}
	if k.hasLocality {
		a.locality = jt.localityRank(t, tt)
	}
	if c != nil {
		jt.containerAttempts[c.ID] = a
	}
	t.attempts = append(t.attempts, a)
	t.state = taskRunning
	jr.counters.Inc(k.ctrLaunched, 1)
	k.launched.Inc()
	if speculative {
		jr.counters.Inc(mapreduce.CtrSpeculativeLaunch, 1)
		jt.m.speculativeLaunch.Inc()
	}
	if t.attemptSeq == 1 {
		t.firstStart = a.startedAt
	}
	if !t.ctx.Valid() {
		t.ctx = jr.ctx.NewChild()
	}
	a.ctx = t.ctx.NewChild()
	return a
}

// armOutcome schedules the attempt's one outcome event: its own error if
// it has one, else the first injected fault that fires, else completion.
// Faults are drawn before the error is consulted, so an armed fault
// consumes the same random stream whether or not the user code failed.
func (jt *JobTracker) armOutcome(a *attempt, p attemptPlan) {
	after, outcome := p.duration, func() { jt.completeAttempt(a, p) }
	for _, fp := range p.faults {
		if f := jt.pickFault(a.t.jr, fp.scope); f != nil {
			cause, crash := errors.New(fp.what), f.CrashDaemons
			after = time.Duration(float64(fp.phase) * f.AfterFraction)
			outcome = func() { jt.failAttempt(a, cause, crash, false) }
			break
		}
	}
	if p.err != nil {
		after, outcome = p.errAfter, func() { jt.failAttempt(a, p.err, false, false) }
	}
	a.timer = jt.mc.Engine.After(after, outcome)
}

// completeAttempt lands a successful attempt: the first finisher wins and
// its siblings die, the kind commits its output, and the task is done.
func (jt *JobTracker) completeAttempt(a *attempt, p attemptPlan) {
	t, jr, k := a.t, a.t.jr, a.t.kind
	if a.dead || !a.tt.alive || t.state == taskDone || jr.state != jobRunning {
		return
	}
	t.removeAttempt(a)
	for _, sib := range append([]*attempt(nil), t.attempts...) {
		jt.killAttempt(sib, "sibling finished first")
	}
	if err := p.commit(); err != nil {
		// An attempt whose output cannot be committed did not succeed: it
		// ends as a failed attempt, and takes the job with it.
		jt.failAttempt(a, err, false, true)
		return
	}
	a.dead = true
	jt.releaseSlot(a)
	t.state = taskDone
	jr.durations[k.idx] = append(jr.durations[k.idx], p.duration)
	jr.counters.Merge(p.counters)
	k.attemptTime.Observe(p.duration)
	jt.attemptEnded(a, history.EvAttemptFinish, "")
	// The task's span runs from its first launch to now — the parent of
	// its attempt spans in the trace tree.
	t.ctx.End(SpanTask, time.Duration(t.firstStart), time.Duration(jt.mc.Engine.Now()), map[string]string{
		"task": t.id(),
		"job":  jr.id,
		"kind": k.name,
	})
	if a.speculative {
		jr.counters.Inc(mapreduce.CtrSpeculativeWon, 1)
	}
	jt.releaseContainer(a, "complete")
	if jr.reducesDone == len(jr.reduces) {
		jt.finishJob(jr)
	} else {
		jt.schedule()
	}
}

// failAttempt charges the attempt's task a failure. The task retries
// until it has failed MaxAttempts times; a fatal failure (a commit that
// did not go through) fails the job at once.
func (jt *JobTracker) failAttempt(a *attempt, cause error, crashDaemons, fatal bool) {
	t, jr, k := a.t, a.t.jr, a.t.kind
	if a.dead || jr.state != jobRunning {
		return
	}
	jr.counters.Inc(k.ctrFailed, 1)
	jr.counters.Inc(mapreduce.CtrTaskRetries, 1)
	k.failed.Inc()
	jt.abandon(a, history.EvAttemptFail, cause.Error())
	t.failures++
	if crashDaemons {
		// The leaky attempt takes the daemons with it: the TaskTracker
		// dies now; the co-located DataNode follows.
		jt.mc.KillTaskTracker(a.tt.id)
		if dn := jt.mc.DFS.DataNode(a.tt.id); dn != nil {
			dn.Kill()
		}
	}
	switch {
	case fatal:
		jt.endJob(jr, cause)
	case t.failures >= jt.mc.cfg.MaxAttempts:
		jt.endJob(jr, fmt.Errorf("task %s failed %d times: %w", t.id(), t.failures, cause))
	default:
		jt.schedule()
	}
}

// --- the two kind-specific bodies ---

// runMapAttempt launches a map attempt of t on tt: reads the split and
// runs the user's mapper over it.
func (jt *JobTracker) runMapAttempt(t *task, tt *TaskTracker, speculative bool, c *yarn.Container) bool {
	jr := t.jr
	a := jt.newAttempt(t, tt, speculative, c)
	jt.attemptStarted(a, -1)

	// Execute the user code now (real data, exact results); the modelled
	// duration decides when the completion event lands.
	client := jt.mc.DFS.Client(tt.id)
	client.Trace = a.ctx
	var taskFS vfs.FileSystem = client
	if jt.mc.cfg.DistributedCache && len(jr.job.SideFiles) > 0 {
		// Localise side files once per tracker; tasks then read the node-
		// local copy without touching HDFS.
		for _, p := range jr.job.SideFiles {
			cp := vfs.Clean(p)
			if _, ok := tt.sideCache[cp]; ok {
				continue
			}
			data, err := vfs.ReadFile(client, cp) // charged to this attempt
			if err != nil {
				continue // the task will surface the error itself
			}
			tt.sideCache[cp] = data
		}
		taskFS = &cacheFS{FileSystem: client, cache: tt.sideCache}
	}
	ctx := mapreduce.NewTaskContext(jr.id, a.id(), taskFS, jr.job)
	split := t.split
	records, rstats, err := mapreduce.ReadSplit(func(off, length int64) ([]byte, error) {
		return client.ReadRange(split.Path, off, length)
	}, split)
	var out *mapreduce.MapOutput
	if err == nil {
		ctx.Counters.Inc(mapreduce.CtrInputDecodedBytes, rstats.BytesDecoded)
		jt.m.inputDecodedBytes.Add(rstats.BytesDecoded)
		if jr.scratch == nil {
			jr.scratch = new(mapreduce.MapScratch)
		}
		out, err = jr.scratch.ExecuteMap(ctx, jr.job, records)
	}

	bytesRead := client.Meter.BytesRead()
	readCost := client.Meter.ReadTime
	if jt.mc.cfg.SharedStorage {
		// HPC layout: the bytes come from the shared parallel filesystem,
		// contended by every map task running right now.
		readCost = jt.mc.Cost.ParallelStorageRead(bytesRead, jt.runningMapAttempts())
	}
	// The mapper's CPU runs over logical (decoded) bytes; for plain text
	// that is the split length it always was.
	mapBytes := split.Length
	if rstats.Compressed {
		mapBytes = rstats.BytesDecoded
	}
	duration := readCost +
		jt.mc.cfg.MapWork.Cost(mapBytes, ctx.Counters.Get(mapreduce.CtrMapInputRecords)) +
		// Parsing side data costs CPU every time it is read, whether the
		// bytes came from HDFS or from the DistributedCache copy.
		jt.mc.cfg.MapWork.Cost(ctx.Counters.Get(mapreduce.CtrSideFileBytesRead), 0)
	if rstats.Compressed {
		// Inflating the input costs CPU per decoded byte.
		duration += compressWork.Cost(rstats.BytesDecoded, 0)
	}
	if jr.job.NewCombiner != nil {
		duration += jt.mc.cfg.CombineWork.Cost(0, ctx.Counters.Get(mapreduce.CtrCombineInputRecords))
	}
	if out != nil {
		duration += jt.mc.Cost.DiskWrite(out.Bytes())
	}
	duration = time.Duration(float64(duration) * jt.slowdown(tt.id))

	jt.armOutcome(a, attemptPlan{
		duration: duration,
		counters: ctx.Counters,
		err:      err,
		errAfter: duration / 2,
		faults:   []faultPoint{{ScopeMap, duration, injectedTaskError}},
		// Commit: the output stays on the tracker's local disk for the
		// reducers to fetch.
		commit: func() error {
			t.output, t.outputOn = out, tt.id
			jr.mapsDone++
			jr.counters.Inc(mapreduce.CtrHDFSBytesRead, bytesRead)
			loc := jt.mapLocality[a.locality]
			jr.counters.Inc(loc.ctr, 1)
			loc.n.Inc()
			if jr.mapsDone == len(jr.maps) && jr.mapsDoneAt == 0 {
				jr.mapsDoneAt = jt.mc.Engine.Now()
			}
			return nil
		},
	})
	return true
}

// runReduceAttempt launches a reduce attempt of t on tt, reporting whether
// it actually started (false when map outputs are gone or unfetchable, so
// the scheduler does not spin re-picking the same task for the same slot):
// costs the shuffle, runs the user's reducer and stages its output.
func (jt *JobTracker) runReduceAttempt(t *task, tt *TaskTracker, speculative bool, c *yarn.Container) bool {
	jr := t.jr
	// Verify every map output is still reachable; a lost tracker between
	// map completion and now sends those maps back to pending. An output
	// that survives but sits across a network partition does not re-run
	// the map — this reducer simply cannot start here until the partition
	// heals or a tracker on the right side picks the task up.
	missing, unfetchable := false, false
	for _, m := range jr.maps {
		if m.state != taskDone {
			missing = true
			continue
		}
		holder := jt.mc.TaskTracker(m.outputOn)
		if holder == nil || !holder.alive || m.output == nil {
			m.state = taskPending
			m.output = nil
			jr.mapsDone--
			missing = true
			continue
		}
		if !jt.mc.Net.Reachable(m.outputOn, tt.id) {
			unfetchable = true
		}
	}
	if missing {
		jt.schedule()
		return false
	}
	if unfetchable {
		return false
	}
	a := jt.newAttempt(t, tt, speculative, c)

	// Shuffle cost: fetch this reducer's partition from every map node,
	// shuffleParallelism streams at a time. With CompressShuffle the wire
	// (and map-side disk) carries the real compressed size under the
	// shuffle codec instead of raw bytes, and both ends pay
	// compression CPU.
	var shufCodec iofmt.Codec
	if jt.mc.cfg.CompressShuffle {
		shufCodec, _ = iofmt.ByName(shuffleCodec)
	}
	var runs [][]mapreduce.Pair
	var perSource []time.Duration
	var shuffleBytes, rawBytes, shuffleRecords int64
	for _, m := range jr.maps {
		part := m.output.Partitions[t.idx]
		runs = append(runs, part)
		var b int64
		for _, p := range part {
			b += p.Bytes()
		}
		rawBytes += b
		wire := b
		if shufCodec != nil && b > 0 {
			wire = shuffleWireSize(shufCodec, part)
		}
		shuffleBytes += wire
		shuffleRecords += int64(len(part))
		if wire > 0 {
			src := m.outputOn
			perSource = append(perSource,
				jt.mc.Cost.DiskRead(wire)+jt.mc.Cost.Transfer(jt.mc.Topology.Distance(src, tt.id), wire))
		}
	}
	shuffleTime := parallelTime(perSource, shuffleParallelism)
	if jt.mc.cfg.CompressShuffle {
		// Compress at the map side, decompress at the reduce side.
		shuffleTime += compressWork.Cost(2*rawBytes, 0)
	}
	jt.m.shuffleBytes.Add(shuffleBytes)
	jt.m.shuffleTime.Observe(shuffleTime)
	// Guarded because building attrs costs.
	if a.ctx.Valid() {
		a.ctx.ChildSpan("mr.shuffle", time.Duration(a.startedAt), time.Duration(a.startedAt)+shuffleTime, map[string]string{
			"attempt": a.id(),
			"bytes":   fmt.Sprint(shuffleBytes),
			"node":    tt.node.Hostname,
		})
	}
	jt.attemptStarted(a, shuffleTime)

	client := jt.mc.DFS.Client(tt.id)
	client.Trace = a.ctx
	ctx := mapreduce.NewTaskContext(jr.id, a.id(), client, jr.job)
	ctx.Counters.Inc(mapreduce.CtrShuffleBytes, shuffleBytes)
	if jr.reduceScratch == nil {
		jr.reduceScratch = new(mapreduce.ReduceScratch)
	}
	// data is the scratch's part buffer: WriteFile below copies it before
	// the next reduce attempt of the job reuses it.
	ow, err := jr.reduceScratch.NewOutputWriter(jr.job)
	if err == nil {
		_, err = jr.reduceScratch.ExecuteReduce(ctx, jr.job, runs, ow)
	}
	var data []byte
	var ostats mapreduce.OutputStats
	if err == nil {
		data, ostats, err = ow.Finish()
	}
	if err == nil {
		ctx.Counters.Inc(mapreduce.CtrOutputRawBytes, ostats.RawBytes)
		jt.m.outputFileBytes.Add(ostats.FileBytes)
		// Commit protocol: write to a temporary attempt file now, rename to
		// the final part file at completion (Hadoop's OutputCommitter).
		a.tempPath = vfs.Join(jr.job.OutputPath, "_temporary", a.id())
		err = vfs.WriteFile(client, a.tempPath, data)
	}
	if err != nil {
		jt.armOutcome(a, attemptPlan{err: err, errAfter: shuffleTime})
		return true
	}
	duration := shuffleTime +
		jt.mc.cfg.ReduceWork.Cost(shuffleBytes, shuffleRecords) +
		client.Meter.WriteTime
	if c, cerr := iofmt.ByName(jr.job.OutputCodec); cerr == nil && c != nil {
		// Compressing the committed output costs CPU per raw byte.
		duration += compressWork.Cost(ostats.RawBytes, 0)
	}
	duration = time.Duration(float64(duration) * jt.slowdown(tt.id))

	written := client.Meter.BytesWritten
	jt.armOutcome(a, attemptPlan{
		duration: duration,
		counters: ctx.Counters,
		faults: []faultPoint{
			{ScopeShuffle, shuffleTime, "injected shuffle fetch failure"},
			{ScopeReduce, duration, injectedTaskError},
		},
		// Commit: rename the attempt file to the final part file.
		commit: func() error {
			final := vfs.Join(jr.job.OutputPath, jr.job.OutputPartName(t.idx))
			if err := jt.mc.DFS.Client(tt.id).Rename(a.tempPath, final); err != nil {
				return fmt.Errorf("commit of %s: %w", a.id(), err)
			}
			a.tempPath = ""
			jr.reducesDone++
			jr.counters.Inc(mapreduce.CtrHDFSBytesWritten, written)
			return nil
		},
	})
	return true
}

// shuffleWireSize returns the real compressed size of a partition's
// pairs under the shuffle codec — the wire bytes a compressed shuffle
// actually moves.
func shuffleWireSize(c iofmt.Codec, pairs []mapreduce.Pair) int64 {
	var buf bytes.Buffer
	for _, p := range pairs {
		buf.WriteString(p.Key)
		buf.Write(p.Val)
	}
	n, err := iofmt.CompressedSize(c, buf.Bytes())
	if err != nil {
		return int64(buf.Len())
	}
	return n
}

// parallelTime models n transfers served k at a time: total work divided
// by effective parallelism, but never less than the longest single fetch.
func parallelTime(costs []time.Duration, k int) time.Duration {
	if len(costs) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, c := range costs {
		sum += c
		if c > max {
			max = c
		}
	}
	if k > len(costs) {
		k = len(costs)
	}
	if k < 1 {
		k = 1
	}
	t := sum / time.Duration(k)
	if t < max {
		t = max
	}
	return t
}

// --- speculation ---

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func (jt *JobTracker) speculate() {
	now := jt.mc.Engine.Now()
	for _, jr := range jt.live {
		launch := func(tasks []*task, k *attemptKind) {
			completed := jr.durations[k.idx]
			if len(completed) < 3 {
				return
			}
			med := median(completed)
			if med == 0 {
				return
			}
			threshold := time.Duration(float64(med) * speculativeThreshold)
			for _, t := range tasks {
				if t.state != taskRunning || len(t.attempts) != 1 {
					continue
				}
				a := t.attempts[0]
				if now-a.startedAt < threshold {
					continue
				}
				// Find a free slot on a different node.
				for _, tt := range jt.mc.trackers {
					if tt.alive && tt.id != a.tt.id && tt.slotsUsed[k.idx] < k.slotCap {
						k.launch(t, tt, true, nil)
						break
					}
				}
			}
		}
		launch(jr.maps, jt.mapKind)
		launch(jr.reduces, jt.reduceKind)
	}
}

// --- terminal states ---

// finishJob commits a job whose last reduce completed.
func (jt *JobTracker) finishJob(jr *jobRun) {
	client := jt.mc.DFS.Client(GatewayForSubmit)
	// The _temporary dir only exists for jobs whose reducers staged
	// output; removing it is cosmetic cleanup, not a commit.
	//lint:ignore commiterr _temporary may not exist; cleanup is best-effort by design
	_ = client.Remove(vfs.Join(jr.job.OutputPath, "_temporary"), true)
	// The _SUCCESS marker is the job's commit record: downstream readers
	// treat its presence as "output complete". If it cannot be written
	// the job must not report success.
	var cause error
	if err := vfs.WriteFile(client, vfs.Join(jr.job.OutputPath, "_SUCCESS"), nil); err != nil {
		cause = fmt.Errorf("mrcluster: writing _SUCCESS marker: %w", err)
	}
	jt.endJob(jr, cause)
}

// endJob moves a job to its terminal state — failed when cause is
// non-nil — and seals its span, history file and YARN application.
func (jt *JobTracker) endJob(jr *jobRun, cause error) {
	outcome, ended := "succeeded", jt.m.jobsSucceeded
	jr.state = jobSucceeded
	if cause != nil {
		outcome, ended = "failed", jt.m.jobsFailed
		jr.state, jr.err = jobFailed, cause
	}
	jr.finishedAt = jt.mc.Engine.Now()
	for i, x := range jt.live {
		if x == jr {
			// [:i:i] makes append copy, so the removal never shifts a
			// list some caller up the stack is still ranging over.
			jt.live = append(jt.live[:i:i], jt.live[i+1:]...)
			break
		}
	}
	// Nothing reads a job's map outputs or scratches once it is not running
	// (completeAttempt, failAttempt and onContainerAllocated all check the
	// state first); dropping them here is what lets a long-lived cluster's
	// heap forget the datasets of the jobs it has run.
	jr.scratch, jr.reduceScratch = nil, nil
	for _, t := range jr.maps {
		t.output = nil
	}
	ended.Inc()
	jr.ctx.End(SpanJob, time.Duration(jr.submittedAt), time.Duration(jr.finishedAt), map[string]string{
		"job":     jr.id,
		"name":    jr.job.Name,
		"outcome": outcome,
	})
	if cause != nil {
		// Kill leftover attempts before sealing the history file, so their
		// attempt.kill events precede the job.finish record.
		for _, t := range append(append([]*task(nil), jr.maps...), jr.reduces...) {
			for _, a := range append([]*attempt(nil), t.attempts...) {
				jt.killAttempt(a, "job failed")
			}
		}
	}
	// The terminal event carries the final counter snapshot flattened into
	// ctr.<NAME> attrs — the numbers `mrhistory` reprints without the
	// cluster object.
	attrs := map[string]string{"job": jr.id, "outcome": outcome}
	for name, v := range jr.counters.Snapshot() {
		attrs["ctr."+name] = fmt.Sprint(v)
	}
	jt.histEv(jr, history.EvJobFinish, attrs)
	jt.persistHistory(jr)
	if jt.yarnMode() && jr.app != nil {
		jt.mc.cfg.YARN.FinishApp(jr.app)
	}
	jt.schedule()
}
