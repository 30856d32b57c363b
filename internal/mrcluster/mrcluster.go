// Package mrcluster is the distributed MapReduce runtime (Hadoop MRv1
// architecture): a JobTracker that schedules map tasks for data locality
// using block locations from the NameNode, TaskTrackers with map/reduce
// slots that heartbeat and can crash, a shuffle whose cost is modelled on
// the cluster network, task retries, speculative execution and job
// reports. It runs entirely on the sim engine: user map/reduce code
// executes for real over real HDFS bytes, while durations come from the
// cost model — so results are exact and performance is deterministic.
package mrcluster

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// Config tunes the runtime. Zero values take Hadoop-1.x-flavoured defaults.
type Config struct {
	MapSlotsPerNode int
	MaxAttempts     int
	// Speculative enables speculative execution of straggling tasks.
	Speculative bool
	// MapWork / ReduceWork model per-task CPU cost. CombineWork is the
	// extra map-side cost per map-output record when a combiner runs —
	// the "increased map task run time" half of the combiner trade-off.
	MapWork     cluster.CPUWork
	ReduceWork  cluster.CPUWork
	CombineWork cluster.CPUWork
	// SharedStorage models the paper's Figure 1(a) HPC layout: compute
	// nodes read input from a shared parallel filesystem across the
	// interconnect instead of from local HDFS replicas. Reads contend for
	// the array's aggregate bandwidth; data locality cannot exist.
	SharedStorage bool
	// DistributedCache localises each job's side files once per
	// TaskTracker (Hadoop's DistributedCache): the first task on a node
	// pays the HDFS read; subsequent tasks read the local copy for free.
	DistributedCache bool
	// CompressShuffle compresses map outputs before the shuffle
	// (mapred.compress.map.output): network bytes drop to the real
	// compressed size, at a CPU cost per uncompressed byte on both sides.
	CompressShuffle bool
	// HeartbeatInterval and TrackerExpiry govern TaskTracker liveness.
	HeartbeatInterval time.Duration
	TrackerExpiry     time.Duration
	// YARN, when set, runs the JobTracker as a YARN application: jobs
	// become managed apps on this capacity ResourceManager (which must be
	// built over the same engine and topology) and every task attempt
	// runs inside a negotiated container instead of a per-node slot. See
	// yarnbridge.go for the semantic differences (speculation disabled,
	// slot caps replaced by the fixed mapContainer / reduceContainer sizes).
	YARN *yarn.ResourceManager
}

const (
	// speculativeThreshold is the slowdown versus the median completed
	// task duration beyond which a backup attempt launches.
	speculativeThreshold = 1.5
	// reduceSlotsPerNode is every TaskTracker's reduce slot count.
	reduceSlotsPerNode = 1
	// shuffleCodec names the iofmt codec the compressed shuffle uses.
	shuffleCodec = "gzip"
	// shuffleParallelism is the number of concurrent fetch streams per
	// reduce task (Hadoop's parallel copies).
	shuffleParallelism = 5
)

var (
	// compressWork is the per-byte CPU cost of compression +
	// decompression — shuffle, compressed inputs and compressed outputs
	// all charge it.
	compressWork = cluster.CPUWork{PerByte: 6}
	// mapContainer / reduceContainer size task containers in YARN mode.
	mapContainer    = yarn.Resource{VCores: 1, MemoryMB: 1024}
	reduceContainer = yarn.Resource{VCores: 1, MemoryMB: 2048}
)

func (c Config) withDefaults() Config {
	if c.MapSlotsPerNode <= 0 {
		c.MapSlotsPerNode = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.MapWork == (cluster.CPUWork{}) {
		c.MapWork = cluster.DefaultMapWork()
	}
	if c.ReduceWork == (cluster.CPUWork{}) {
		c.ReduceWork = cluster.DefaultReduceWork()
	}
	if c.CombineWork == (cluster.CPUWork{}) {
		c.CombineWork = cluster.CPUWork{PerRecord: 150}
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 3 * time.Second
	}
	if c.TrackerExpiry <= 0 {
		c.TrackerExpiry = 30 * time.Second
	}
	if c.YARN != nil {
		// Preemption is the RM's rebalancing mechanism; a speculative
		// backup attempt would fight it for containers.
		c.Speculative = false
	}
	return c
}

// TaskTracker runs task attempts on one node. Its map outputs live on the
// node's local disk: if the tracker dies, completed map work is lost and
// must be re-executed elsewhere — the failure mode behind the paper's
// first-semester meltdown.
type TaskTracker struct {
	id   cluster.NodeID
	node *cluster.Node

	alive         bool
	lossHandled   bool
	slotsUsed     [2]int // running attempts, by taskKind
	lastHeartbeat sim.Time

	// muteUntil suppresses heartbeats before this instant (fault
	// injection); past TrackerExpiry the JobTracker declares the node lost.
	muteUntil sim.Time

	// slow multiplies the modelled duration of attempts that start here
	// (straggler injection, SetNodeSlowdown); 0 means a healthy node. It
	// outlives tracker restarts: the slowness is the machine's.
	slow float64

	// sideCache holds side files localised by the DistributedCache,
	// keyed by path. Lost when the tracker dies.
	sideCache map[string][]byte

	hbTicker *sim.Ticker
}

// ID returns the node the tracker runs on.
func (tt *TaskTracker) ID() cluster.NodeID { return tt.id }

// Hostname returns the tracker's machine name.
func (tt *TaskTracker) Hostname() string { return tt.node.Hostname }

// Alive reports whether the daemon is running.
func (tt *TaskTracker) Alive() bool { return tt.alive }

// slowdown returns the straggler multiplier for attempts on the node.
func (tt *TaskTracker) slowdown() float64 {
	if tt.slow > 0 {
		return tt.slow
	}
	return 1
}

// TaskScope selects which part of a job's execution a TaskFault strikes.
type TaskScope int

const (
	// ScopeMap strikes map attempts — the "run time errors that created
	// memory leaks ... and consequently crashed the task tracker and data
	// node daemons" of the paper's Fall 2012 story.
	ScopeMap TaskScope = iota
	// ScopeReduce strikes reduce attempts after the shuffle completes.
	ScopeReduce
	// ScopeShuffle strikes the fetch phase feeding a reduce attempt.
	ScopeShuffle
)

// String names the scope for fault logs.
func (s TaskScope) String() string {
	switch s {
	case ScopeReduce:
		return "reduce"
	case ScopeShuffle:
		return "shuffle"
	default:
		return "map"
	}
}

// TaskFault injects runtime errors into a job's task attempts. It is the
// runtime's task-level injection point, driven directly or through a
// faultinject.Plan (fault kind TaskError).
type TaskFault struct {
	// JobName selects the job whose attempts misbehave.
	JobName string
	// Scope selects map attempts (default), reduce attempts or shuffle
	// fetches.
	Scope TaskScope
	// Probability is the chance each in-scope attempt hits the fault.
	Probability float64
	// CrashDaemons, when set, kills the TaskTracker (and the co-located
	// DataNode) instead of merely failing the attempt.
	CrashDaemons bool
	// AfterFraction is how far through the attempt the fault strikes.
	AfterFraction float64
}

// MRCluster bundles the JobTracker and one TaskTracker per node over an
// existing MiniDFS.
type MRCluster struct {
	Engine   *sim.Engine
	Topology *cluster.Topology
	Cost     cluster.CostModel
	DFS      *hdfs.MiniDFS
	Net      *cluster.Network
	JT       *JobTracker
	// Obs is the cluster-wide observability registry, shared with the
	// underlying MiniDFS so one snapshot covers storage and compute.
	Obs *obs.Registry

	trackers []*TaskTracker
	cfg      Config
	// started flips after construction: tracker (re)starts from then on
	// also return the node to the YARN pool (initial starts must not, or
	// they would override the autoscaler's initial pool size).
	started bool
}

// NewMRCluster starts TaskTrackers on every node of the DFS topology.
func NewMRCluster(dfs *hdfs.MiniDFS, cfg Config, seed int64) *MRCluster {
	cfg = cfg.withDefaults()
	mc := &MRCluster{
		Engine:   dfs.Engine,
		Topology: dfs.Topology,
		Cost:     dfs.Cost,
		DFS:      dfs,
		Net:      dfs.Net,
		Obs:      dfs.Obs,
		cfg:      cfg,
	}
	jt := newJobTracker(mc, sim.NewRand(seed).Derive("jobtracker"))
	mc.JT = jt
	for _, n := range dfs.Topology.Nodes() {
		tt := &TaskTracker{id: n.ID, node: n}
		mc.trackers = append(mc.trackers, tt)
		mc.StartTaskTracker(n.ID)
	}
	mc.started = true
	jt.start()
	return mc
}

// Config returns the effective runtime configuration.
func (mc *MRCluster) Config() Config { return mc.cfg }

// TaskTrackers returns the trackers in node order.
func (mc *MRCluster) TaskTrackers() []*TaskTracker { return mc.trackers }

// TaskTracker returns the tracker on a node, or nil.
func (mc *MRCluster) TaskTracker(id cluster.NodeID) *TaskTracker {
	if int(id) < 0 || int(id) >= len(mc.trackers) {
		return nil
	}
	return mc.trackers[id]
}

// StartTaskTracker (re)starts the tracker daemon on a node.
func (mc *MRCluster) StartTaskTracker(id cluster.NodeID) {
	tt := mc.TaskTracker(id)
	if tt == nil || tt.alive {
		return
	}
	tt.alive = true
	tt.lossHandled = false
	tt.lastHeartbeat = mc.Engine.Now()
	tt.muteUntil = 0
	tt.slotsUsed = [2]int{}
	tt.sideCache = map[string][]byte{}
	tt.hbTicker = mc.Engine.Every(mc.cfg.HeartbeatInterval, func() {
		if tt.alive && mc.Engine.Now() >= tt.muteUntil {
			mc.JT.heartbeat(tt)
		}
	})
	if mc.cfg.YARN != nil && mc.started {
		// A rejoined tracker returns its node to the allocatable pool.
		mc.cfg.YARN.SetNodeActive(id, true)
	}
}

// KillTaskTracker crashes the tracker daemon on a node. Map outputs on the
// node become unreachable; the JobTracker notices via heartbeat expiry.
func (mc *MRCluster) KillTaskTracker(id cluster.NodeID) {
	tt := mc.TaskTracker(id)
	if tt == nil || !tt.alive {
		return
	}
	tt.alive = false
	if tt.hbTicker != nil {
		tt.hbTicker.Stop()
	}
}

// InjectTaskFault arms a fault for future attempts of a job.
func (mc *MRCluster) InjectTaskFault(f TaskFault) { mc.JT.faults = append(mc.JT.faults, f) }

// SetNodeSlowdown sets (or, with factor <= 0, clears) the straggler
// multiplier applied to task attempts that start on a node from now on;
// attempts already running keep their original modelled duration. An id
// off the cluster is ignored.
func (mc *MRCluster) SetNodeSlowdown(id cluster.NodeID, factor float64) {
	if tt := mc.TaskTracker(id); tt != nil {
		tt.slow = max(factor, 0)
	}
}

// DropTrackerHeartbeatsFor mutes a TaskTracker's heartbeats for the next d
// of virtual time without stopping its work. Past TrackerExpiry the
// JobTracker declares the node lost and reschedules everything it held —
// the rejoin path afterwards is StartTaskTracker (Hadoop reinitialises a
// returning tracker from scratch).
func (mc *MRCluster) DropTrackerHeartbeatsFor(id cluster.NodeID, d time.Duration) {
	tt := mc.TaskTracker(id)
	if tt == nil {
		return
	}
	until := mc.Engine.Now() + d
	if until > tt.muteUntil {
		tt.muteUntil = until
	}
}

// Submit queues a job for execution and returns its handle.
func (mc *MRCluster) Submit(job *mapreduce.Job) (*JobHandle, error) {
	return mc.JT.submit(job)
}

// Run submits a job and drives the simulation until it finishes.
func (mc *MRCluster) Run(job *mapreduce.Job) (*Report, error) {
	h, err := mc.Submit(job)
	if err != nil {
		return nil, err
	}
	guard := 0
	for !h.Done() {
		if !mc.Engine.Step() {
			return nil, fmt.Errorf("mrcluster: simulation stalled with job %q incomplete", job.Name)
		}
		guard++
		if guard > 50_000_000 {
			return nil, fmt.Errorf("mrcluster: job %q exceeded event budget", job.Name)
		}
	}
	return h.Report(), h.Err()
}
