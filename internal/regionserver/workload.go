package regionserver

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// WorkloadResult is one closed-loop run: throughput over the virtual
// makespan and the latency distribution of successful ops (latency spans
// first attempt → completion, so crash-window retries land in the tail).
type WorkloadResult struct {
	Ops       int           `json:"ops"`
	Errors    int           `json:"errors"`
	Retried   int           `json:"retried_ops"`
	Makespan  time.Duration `json:"makespan"`
	OpsPerSec float64       `json:"ops_per_sec"`
	P50       time.Duration `json:"p50"`
	P99       time.Duration `json:"p99"`
	P999      time.Duration `json:"p999"`
	// Acked maps row key → last acknowledged written value, the model the
	// zero-lost-writes verification replays against the recovered table.
	Acked map[string]string `json:"-"`
}

// workloadRetries bounds per-op retries; with workloadBackoff between
// attempts the retry budget comfortably outlives the heartbeat expiry +
// WAL replay of a crash recovery.
const (
	workloadRetries = 16
	workloadBackoff = 250 * time.Millisecond
)

// RunWorkload drives the op stream against the table from `clients`
// closed-loop virtual clients sharing one Client (and so one location
// cache and one cache tier): client c issues ops c, c+clients, ... of the
// stream, each at the previous one's completion, so server queueing
// shapes throughput. Ops that fail with a retryable error back off in
// virtual time and retry — surviving a crash-recovery window — and count
// as Errors only when the budget is exhausted.
func RunWorkload(eng *sim.Engine, cl *Client, table string, ops []datagen.YCSBOp, clients int) *WorkloadResult {
	if clients <= 0 {
		clients = 32
	}
	if clients > len(ops) {
		clients = len(ops)
	}
	run := &workloadRun{
		eng: eng, cl: cl, table: table, ops: ops, stride: clients,
		res:  &WorkloadResult{Acked: map[string]string{}},
		lats: make([]time.Duration, 0, len(ops)),
		last: eng.Now(),
	}
	start := eng.Now()
	for ci := 0; ci < clients; ci++ {
		vc := &virtualClient{run: run, next: ci}
		vc.step, vc.exec = vc.doStep, vc.doExec
		run.remaining++
		eng.Schedule(start, vc.step)
	}
	for run.remaining > 0 {
		if !eng.Step() {
			break
		}
	}
	res, lats := run.res, run.lats
	res.Makespan = time.Duration(run.last - start)
	if res.Makespan > 0 {
		res.OpsPerSec = float64(res.Ops) / res.Makespan.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.P50 = percentile(lats, 0.50)
	res.P99 = percentile(lats, 0.99)
	res.P999 = percentile(lats, 0.999)
	return res
}

// workloadRun is what the virtual clients of one RunWorkload share.
type workloadRun struct {
	eng    *sim.Engine
	cl     *Client
	table  string
	ops    []datagen.YCSBOp
	stride int // the number of clients: each takes every stride-th op

	res       *WorkloadResult
	lats      []time.Duration
	last      sim.Time // when the last client finished
	remaining int      // clients still running
	val       []byte   // every read lands here; the driver keeps no value
}

// virtualClient is one closed-loop client: a cursor into the shared op
// stream and the two callbacks it hands the engine, bound once so that
// an op schedules no new closure.
type virtualClient struct {
	run     *workloadRun
	next    int      // index of the op the next step starts
	op      int      // index of the op in flight
	opStart sim.Time // its first attempt
	attempt int      // retries so far
	step    func()   // start the next op (or finish)
	exec    func()   // attempt the op in flight
}

func (vc *virtualClient) doStep() {
	r := vc.run
	if vc.next >= len(r.ops) {
		r.remaining--
		if r.eng.Now() > r.last {
			r.last = r.eng.Now()
		}
		return
	}
	vc.op, vc.next = vc.next, vc.next+r.stride
	vc.opStart = r.eng.Now()
	vc.attempt = 0
	vc.doExec()
}

func (vc *virtualClient) doExec() {
	r := vc.run
	cl, res := r.cl, r.res
	op := &r.ops[vc.op]
	now := r.eng.Now()
	var done sim.Time
	var err error
	switch op.Type {
	case datagen.YCSBRead:
		var v []byte
		v, done, err = cl.getInto(r.val, now, r.table, op.Key)
		if err == nil {
			r.val = v
		} else if errors.Is(err, kvstore.ErrNotFound) {
			err = nil // absent row is a valid read result
		}
	case datagen.YCSBUpdate, datagen.YCSBInsert:
		done, err = cl.Put(now, r.table, op.Key, op.Value)
	case datagen.YCSBRMW:
		done, err = cl.ReadModifyWrite(now, r.table, op.Key, op.Value)
	case datagen.YCSBScan:
		_, done, err = cl.Scan(now, r.table, op.Key, "", op.ScanLen)
	default:
		done, err = now, fmt.Errorf("regionserver: unknown op %q", op.Type)
	}
	if err != nil && retryable(err) && vc.attempt < workloadRetries {
		if vc.attempt == 0 {
			res.Retried++
		}
		vc.attempt++
		r.eng.Schedule(now+workloadBackoff, vc.exec)
		return
	}
	if err != nil {
		res.Errors++
		done = now
	} else {
		res.Ops++
		lat := time.Duration(done - vc.opStart)
		r.lats = append(r.lats, lat)
		cl.m.opLatency.Observe(lat)
		switch op.Type {
		case datagen.YCSBUpdate, datagen.YCSBInsert, datagen.YCSBRMW:
			res.Acked[op.Key] = string(op.Value)
		}
	}
	r.eng.Schedule(done, vc.step)
}

// percentile is nearest-rank over an ascending slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// BenchOpts sizes one BenchRun: a fresh cluster, a bulk-loaded table,
// one YCSB mix, optionally a mid-workload server crash.
type BenchOpts struct {
	Mix           string // "a", "b", "c", "e", "f" (default "a")
	Records       int    // initial rows (default 4000)
	Ops           int    // workload ops (default 12000)
	Clients       int    // closed-loop clients (default 32)
	Servers       int    // region servers (default 4)
	PreSplit      int    // initial regions (default 8)
	ValueSize     int    // row bytes (default 100)
	Cache         bool   // front the servers with the cache tier
	CacheShards   int    // default 16
	CacheCapacity int    // per shard, default 128
	Seed          int64
	Crash         bool          // kill the hottest region's server mid-run
	CrashAt       time.Duration // default 800ms into the workload
	SplitMaxOps   int           // hot-region split trigger (default 2500)
	SplitMaxBytes int64         // size split trigger (default 1 MiB)
}

func (o *BenchOpts) defaults() {
	if o.Mix == "" {
		o.Mix = "a"
	}
	if o.Records <= 0 {
		o.Records = 4000
	}
	if o.Ops <= 0 {
		o.Ops = 12000
	}
	if o.Clients <= 0 {
		o.Clients = 32
	}
	if o.Servers <= 0 {
		o.Servers = 4
	}
	if o.PreSplit <= 0 {
		o.PreSplit = 8
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 100
	}
	if o.CacheShards <= 0 {
		o.CacheShards = 16
	}
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 128
	}
	if o.CrashAt <= 0 {
		o.CrashAt = 800 * time.Millisecond
	}
	if o.SplitMaxOps <= 0 {
		o.SplitMaxOps = 2500
	}
	if o.SplitMaxBytes <= 0 {
		o.SplitMaxBytes = 1 << 20
	}
}

// BenchResult is one BenchRun's outcome plus its determinism artifacts.
type BenchResult struct {
	WorkloadResult
	Mix             string  `json:"mix"`
	Cache           bool    `json:"cache"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	Splits          int     `json:"splits"`
	Reassigns       int     `json:"reassigns"`
	RegionsFinal    int     `json:"regions_final"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	LostAckedWrites int     `json:"lost_acked_writes"`
	VerifiedWrites  int     `json:"verified_writes"`

	// MetaLog is the byte-comparable META event log; FaultLog the
	// injector's executed-fault log (empty without Crash).
	MetaLog  []byte `json:"-"`
	FaultLog string `json:"-"`
	// Snap is the full obs snapshot (counters, gauges, spans) as JSON.
	Snap []byte `json:"-"`
}

// BenchTable is the table BenchRun serves.
const BenchTable = "usertable"

// BenchRun builds a fresh serving cluster on an in-memory filesystem,
// bulk-loads the YCSB dataset, runs one workload mix end to end —
// optionally crashing the hottest region's server mid-run via
// faultinject — and verifies every acknowledged write against the final
// table state.
func BenchRun(o BenchOpts) (*BenchResult, error) {
	res, _, err := benchRun(o)
	return res, err
}

// benchRun is BenchRun, also handing back the stopped cluster so a test
// can read the table the run left behind.
func benchRun(o BenchOpts) (*BenchResult, *Cluster, error) {
	o.defaults()
	eng := sim.NewEngine()
	fs := vfs.NewMemFS()
	reg := obs.NewRegistry()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(o.Servers+1, 1))
	c, err := New(eng, fs, topo, Options{
		Servers:       o.Servers,
		Obs:           reg,
		SplitMaxOps:   o.SplitMaxOps,
		SplitMaxBytes: o.SplitMaxBytes,
		KV: kvstore.Config{
			FlushThresholdBytes: 32 << 10,
			WALSegmentBytes:     16 << 10,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	defer c.Stop()

	var splitKeys []string
	for i := 1; i < o.PreSplit; i++ {
		splitKeys = append(splitKeys, datagen.YCSBKey(i*o.Records/o.PreSplit))
	}
	if err := c.Master.CreateTable(BenchTable, splitKeys); err != nil {
		return nil, nil, err
	}
	load := datagen.YCSBLoad(o.Records, o.ValueSize)
	kvs := make([]kvstore.KV, len(load))
	for i, op := range load {
		kvs[i] = kvstore.KV{Key: op.Key, Value: op.Value}
	}
	if err := c.Master.BulkLoadTable(BenchTable, kvs); err != nil {
		return nil, nil, err
	}

	ops, err := datagen.YCSB(datagen.YCSBOpts{
		Mix: o.Mix, Records: o.Records, Ops: o.Ops, ValueSize: o.ValueSize, Seed: o.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	cl := c.NewClient()
	if o.Cache {
		cl = c.NewCachedClient(o.CacheShards, o.CacheCapacity)
	}

	res := &BenchResult{Mix: o.Mix, Cache: o.Cache}
	var crashAt sim.Time
	if o.Crash {
		// At CrashAt, kill the server hosting the hottest region (the
		// head of the key range, where the Zipf mass is) through the
		// fault injector.
		eng.Schedule(eng.Now()+o.CrashAt, func() {
			crashAt = eng.Now()
			hot := c.HottestRegions(1)
			if len(hot) == 0 {
				return
			}
			srv := c.Master.Server(hot[0].Info.Srv)
			if srv == nil || !srv.alive {
				return
			}
			inj, err := faultinject.New(
				faultinject.Target{Engine: eng, Topology: topo, Serving: c},
				faultinject.Plan{Seed: o.Seed, Faults: []faultinject.Fault{
					{Kind: faultinject.NodeCrash, Node: srv.Node()},
				}},
			)
			if err != nil {
				return
			}
			inj.Install()
			eng.Schedule(eng.Now(), func() { res.FaultLog = inj.LogString() })
		})
	}

	wl := RunWorkload(eng, cl, BenchTable, ops, o.Clients)
	res.WorkloadResult = *wl

	// Verify: every acknowledged write must read back from the (possibly
	// recovered) table. A lost WAL record or bad reassignment shows up
	// here.
	keys := make([]string, 0, len(wl.Acked))
	for k := range wl.Acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	verify := c.NewClient() // cache-free read of the authoritative tier
	for _, k := range keys {
		v, _, err := verify.Get(eng.Now(), BenchTable, k)
		if err != nil || string(v) != wl.Acked[k] {
			res.LostAckedWrites++
			continue
		}
		res.VerifiedWrites++
	}

	hits := reg.CounterValue(MetricCacheHits)
	misses := reg.CounterValue(MetricCacheMisses)
	if hits+misses > 0 {
		res.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	res.Splits = int(reg.CounterValue(MetricSplits))
	res.Reassigns = int(reg.CounterValue(MetricReassigns))
	if regions, err := c.Master.Regions(BenchTable); err == nil {
		res.RegionsFinal = len(regions)
	}
	if o.Crash && res.Reassigns > 0 {
		_, end, _ := c.Master.LastRecovery()
		res.RecoverySeconds = time.Duration(end - crashAt).Seconds()
	}
	if res.MetaLog, err = c.Master.MetaLogBytes(); err != nil {
		return nil, nil, err
	}
	if res.Snap, err = reg.SnapshotJSON(); err != nil {
		return nil, nil, err
	}
	if err := c.Master.CheckMeta(); err != nil {
		return nil, nil, fmt.Errorf("regionserver: META broken after run: %w", err)
	}
	return res, c, nil
}
