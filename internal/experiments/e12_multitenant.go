package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// E12 replays the paper's deadline meltdown at 10x enrollment inside a
// multi-tenant cluster: a Google-trace-shaped workload of ~1,200
// applications across prod / batch / students tenants, with the 350
// student apps bunching against the deadline exactly as the 35 did in
// Fall 2012. The same workload runs twice — once through a single FIFO
// queue (the paper's cluster), once through hierarchical capacity
// queues with preemption and an elastic node pool — and the comparison
// is the experiment: fair share + preemption flatten the deadline
// queue, and autoscaling returns the idle tail of the cluster.

// E12QueueStats summarizes one tenant class in one replay.
type E12QueueStats struct {
	Queue string
	Apps  int
	P50   time.Duration
	P99   time.Duration
}

// E12RunStats is everything one scheduling-mode replay produced.
type E12RunStats struct {
	Makespan    time.Duration
	Preemptions int
	NodeHours   float64
	Queues      []E12QueueStats
}

// QueueStats returns the stats row for a tenant class.
func (s *E12RunStats) QueueStats(queue string) E12QueueStats {
	for _, q := range s.Queues {
		if q.Queue == queue {
			return q
		}
	}
	return E12QueueStats{Queue: queue}
}

// E12Result is the structured outcome of E12.
type E12Result struct {
	Apps     int
	Students int
	Nodes    int
	FIFO     E12RunStats
	Capacity E12RunStats
}

// E12Opts scales the replay; the zero value is the full experiment.
type E12Opts struct {
	// Apps / Students size the workload (default 1200 / 350; the CI
	// smoke passes hundreds instead of thousands).
	Apps     int
	Students int
}

const e12Nodes = 16

// e12CapacityQueues is the multi-tenant queue tree: prod and batch each
// guaranteed 30%, students 40% (it is their deadline), everyone elastic
// up to most of the cluster when it is idle.
func e12CapacityQueues() yarn.QueueConfig {
	return yarn.QueueConfig{
		Name: "root",
		Children: []yarn.QueueConfig{
			{Name: datagen.QueueProd, Capacity: 0.3, MaxCapacity: 0.5, UserLimitFactor: 2},
			{Name: datagen.QueueBatch, Capacity: 0.3, MaxCapacity: 1.0, UserLimitFactor: 4},
			{Name: datagen.QueueStudents, Capacity: 0.4, MaxCapacity: 0.9, UserLimitFactor: 2},
		},
	}
}

// e12Replay runs one scheduling mode over the workload and returns the
// stats plus the RM and registry (for artifact extraction).
func e12Replay(workload []datagen.TraceApp, multiTenant bool) (*E12RunStats, *yarn.ResourceManager, *obs.Registry, error) {
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(e12Nodes, 2))
	reg := obs.NewRegistry()
	opts := yarn.CapacityOptions{Obs: reg}
	if multiTenant {
		opts.Queues = e12CapacityQueues()
		opts.Preemption = yarn.PreemptionConfig{Enabled: true}
		opts.Autoscale = yarn.AutoscaleConfig{Enabled: true, MinNodes: 4}
	}
	rm, err := yarn.NewCapacityResourceManager(eng, topo, opts)
	if err != nil {
		return nil, nil, nil, err
	}

	apps := make([]*yarn.Application, len(workload))
	var submitErr error
	var window time.Duration
	for i, wa := range workload {
		if wa.Submit > window {
			window = wa.Submit
		}
		i, wa := i, wa
		eng.Schedule(sim.Time(wa.Submit), func() {
			spec := yarn.AppSpec{Name: wa.Name, User: wa.User}
			if multiTenant {
				spec.Queue = wa.Queue
			}
			for _, t := range wa.Tasks {
				spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
					Resource: yarn.Resource{VCores: t.VCores, MemoryMB: t.MemoryMB},
					Duration: t.Duration,
				})
			}
			app, err := rm.Submit(spec)
			if err != nil {
				submitErr = err
				return
			}
			apps[i] = app
		})
	}

	// Drain: run out the arrival window, then advance until the last app
	// finishes (the preemption/autoscale tickers keep the event queue
	// nonempty forever, so Run() alone would not terminate).
	eng.RunUntil(sim.Time(window))
	for i := 0; i < 100000 && !rm.AllFinished(); i++ {
		eng.Advance(30 * time.Second)
	}
	if submitErr != nil {
		return nil, nil, nil, submitErr
	}
	if !rm.AllFinished() {
		return nil, nil, nil, fmt.Errorf("e12: workload did not drain")
	}

	stats := &E12RunStats{
		Preemptions: rm.Preemptions(),
		NodeHours:   rm.NodeHours(),
	}
	latencies := map[string][]time.Duration{}
	for i, app := range apps {
		if app == nil {
			return nil, nil, nil, fmt.Errorf("e12: app %s was never submitted", workload[i].Name)
		}
		if d := app.FinishedAt; time.Duration(d) > stats.Makespan {
			stats.Makespan = time.Duration(d)
		}
		// Key stats by the workload's tenant class, not the resolved
		// queue, so FIFO (where everyone lands in "default") stays
		// comparable per tenant.
		q := workload[i].Queue
		latencies[q] = append(latencies[q], app.Makespan())
	}
	for _, q := range []string{datagen.QueueProd, datagen.QueueBatch, datagen.QueueStudents} {
		ls := latencies[q]
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		stats.Queues = append(stats.Queues, E12QueueStats{
			Queue: q,
			Apps:  len(ls),
			P50:   percentileDur(ls, 0.50),
			P99:   percentileDur(ls, 0.99),
		})
	}
	return stats, rm, reg, nil
}

// percentileDur returns the q-th percentile of sorted durations
// (nearest-rank, deterministic).
func percentileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// E12Scaled runs the replay at a chosen scale (the CI smoke uses
// hundreds of apps; the registry entry uses the full default).
func E12Scaled(seed int64, o E12Opts) (*Result, error) {
	workload := datagen.TraceWorkload(datagen.TraceWorkloadOpts{
		Apps: o.Apps, Students: o.Students, Seed: seed,
	})
	students := 0
	for _, wa := range workload {
		if wa.Queue == datagen.QueueStudents {
			students++
		}
	}
	fifo, _, _, err := e12Replay(workload, false)
	if err != nil {
		return nil, err
	}
	capa, rm, _, err := e12Replay(workload, true)
	if err != nil {
		return nil, err
	}
	res := &E12Result{
		Apps:     len(workload),
		Students: students,
		Nodes:    e12Nodes,
		FIFO:     *fifo,
		Capacity: *capa,
	}

	out := &Result{
		ID:     "E12",
		Title:  fmt.Sprintf("Deadline meltdown at 10x: %d apps, %d students, FIFO vs capacity+preemption", res.Apps, res.Students),
		Header: []string{"scheduler", "tenant", "apps", "p50 latency", "p99 latency", "makespan", "preemptions", "node-hours"},
		Raw:    res,
	}
	addRows := func(name string, s *E12RunStats) {
		for i, q := range s.Queues {
			mk, pre, nh := "", "", ""
			if i == 0 {
				mk = fmtDur(s.Makespan)
				pre = fmt.Sprint(s.Preemptions)
				nh = fmt.Sprintf("%.1f", s.NodeHours)
			}
			out.Rows = append(out.Rows, []string{
				name, q.Queue, fmt.Sprint(q.Apps), fmtDur(q.P50), fmtDur(q.P99), mk, pre, nh,
			})
		}
	}
	addRows("fifo", fifo)
	addRows("capacity", capa)
	fifoP99 := fifo.QueueStats(datagen.QueueStudents).P99
	capP99 := capa.QueueStats(datagen.QueueStudents).P99
	if capP99 > 0 {
		out.Notes = append(out.Notes, fmt.Sprintf(
			"students p99: %s (fifo) -> %s (capacity): %.1fx better under deadline load",
			fmtDur(fifoP99), fmtDur(capP99), float64(fifoP99)/float64(capP99)))
	}
	out.Notes = append(out.Notes, fmt.Sprintf(
		"node-hours: %.1f (fifo, fixed %d nodes) -> %.1f (autoscaled, %d preemptions)",
		fifo.NodeHours, e12Nodes, capa.NodeHours, capa.Preemptions))
	_ = rm
	return out, nil
}

// E12Multitenant is the registry entry: the full-scale replay.
func E12Multitenant(seed int64) (*Result, error) {
	return E12Scaled(seed, E12Opts{})
}

// E12ReplayArtifacts runs the multi-tenant replay once and returns the
// byte artifacts the determinism tests compare across runs: the
// scheduler's event log (history JSONL) and the obs snapshot.
func E12ReplayArtifacts(seed int64, o E12Opts) (eventLog, obsSnap []byte, err error) {
	workload := datagen.TraceWorkload(datagen.TraceWorkloadOpts{
		Apps: o.Apps, Students: o.Students, Seed: seed,
	})
	_, rm, reg, err := e12Replay(workload, true)
	if err != nil {
		return nil, nil, err
	}
	eventLog, err = rm.EventLog().Bytes()
	if err != nil {
		return nil, nil, err
	}
	obsSnap, err = reg.SnapshotJSON()
	if err != nil {
		return nil, nil, err
	}
	return eventLog, obsSnap, nil
}
