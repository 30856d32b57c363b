package main

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

// yarnTrace replays a Google-trace-shaped arrival schedule through the
// capacity ResourceManager: experiment E12's capacity arm at twice the
// app count, where the backlog scan and the preemption monitor dominate.
type yarnTrace struct {
	workload []datagen.TraceApp

	traceOff bool
	eng      *sim.Engine
	reg      *obs.Registry
	rm       *yarn.ResourceManager
	apps     []*yarn.Application
	errs     []error
}

func setupYarnTrace(seed int64, scale float64) (instance, error) {
	return &yarnTrace{workload: datagen.TraceWorkload(datagen.TraceWorkloadOpts{
		Apps: scaled(2400, scale, 24), Students: scaled(700, scale, 7), Seed: seed,
	})}, nil
}

// yarnQueues is E12's tenant tree (internal/experiments.e12CapacityQueues,
// which is unexported).
func yarnQueues() yarn.QueueConfig {
	return yarn.QueueConfig{
		Name: "root",
		Children: []yarn.QueueConfig{
			{Name: datagen.QueueProd, Capacity: 0.3, MaxCapacity: 0.5, UserLimitFactor: 2},
			{Name: datagen.QueueBatch, Capacity: 0.3, MaxCapacity: 1.0, UserLimitFactor: 4},
			{Name: datagen.QueueStudents, Capacity: 0.4, MaxCapacity: 0.9, UserLimitFactor: 2},
		},
	}
}

func (w *yarnTrace) prepare(rec *recorder, traceOff bool) error {
	w.traceOff = traceOff
	w.eng, w.reg, w.rm, w.errs = nil, nil, nil, nil
	w.apps = make([]*yarn.Application, len(w.workload))
	return nil
}

func (w *yarnTrace) run(rec *recorder) error {
	err := rec.do("yarn.new", func() (err error) {
		w.eng = sim.NewEngine()
		w.reg = obs.NewRegistry()
		if w.traceOff {
			w.reg.SetTraceSampling(1 << 30)
		}
		topo := cluster.NewTopology(cluster.PaperNodeConfig(16, 2))
		w.rm, err = yarn.NewCapacityResourceManager(w.eng, topo, yarn.CapacityOptions{
			Obs:        w.reg,
			Queues:     yarnQueues(),
			Preemption: yarn.PreemptionConfig{Enabled: true},
			Autoscale:  yarn.AutoscaleConfig{Enabled: true, MinNodes: 4},
		})
		return err
	})
	if err != nil {
		return err
	}
	var window time.Duration
	for i := range w.workload {
		i, wa := i, &w.workload[i]
		if wa.Submit > window {
			window = wa.Submit
		}
		w.eng.Schedule(sim.Time(wa.Submit), func() {
			id := rec.begin("yarn.submit")
			defer rec.end(id)
			spec := yarn.AppSpec{Name: wa.Name, User: wa.User, Queue: wa.Queue}
			for _, t := range wa.Tasks {
				spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
					Resource: yarn.Resource{VCores: t.VCores, MemoryMB: t.MemoryMB},
					Duration: t.Duration,
				})
			}
			app, err := w.rm.Submit(spec)
			if err != nil {
				w.errs = append(w.errs, fmt.Errorf("submit %s: %w", wa.Name, err))
				return
			}
			w.apps[i] = app
		})
	}
	// The preemption and autoscale tickers keep the queue non-empty for
	// ever, so drain by advancing until the last app finishes.
	w.eng.RunUntil(sim.Time(window))
	for i := 0; i < 100000 && !w.rm.AllFinished(); i++ {
		w.eng.Advance(30 * time.Second)
	}
	return nil
}

func (w *yarnTrace) verify() (iterStats, error) {
	cv := func(name string) float64 { return float64(w.reg.CounterValue(name)) }
	st := iterStats{
		work:      float64(len(w.workload)),
		attempted: len(w.workload) + 1,
		exact: map[string]float64{
			"sim.events":                float64(w.eng.Processed),
			"yarn.rm_events":            cv("rm.events"),
			"yarn.containers_allocated": cv("rm.containers_allocated"),
			"yarn.preemptions":          float64(w.rm.Preemptions()),
			"yarn.scale_ups":            cv("rm.scale_ups"),
			"yarn.node_hours":           w.rm.NodeHours(),
			"obs.spans":                 float64(len(w.reg.Spans())),
		},
	}
	for _, err := range w.errs {
		st.failures = append(st.failures, err.Error())
	}
	var drained sim.Time
	var students []time.Duration
	for i, app := range w.apps {
		switch {
		case app == nil:
			// counted through w.errs, or never reached its submit time
			if len(w.errs) == 0 {
				st.failures = append(st.failures, w.workload[i].Name+" was never submitted")
			}
		case app.State != yarn.AppFinished:
			st.failures = append(st.failures, fmt.Sprintf("%s ended in state %v", app.Spec.Name, app.State))
		default:
			if app.FinishedAt > drained {
				drained = app.FinishedAt
			}
			if w.workload[i].Queue == datagen.QueueStudents {
				students = append(students, app.Makespan())
			}
		}
	}
	if err := yarn.CheckLog(w.rm.EventLog().Events()); err != nil {
		st.failures = append(st.failures, "event log: "+err.Error())
	}
	st.failed = len(st.failures)
	st.simS = time.Duration(drained).Seconds()
	sort.Slice(students, func(i, j int) bool { return students[i] < students[j] })
	if n := len(students); n > 0 {
		// nearest-rank p99, as E12 reports it
		idx := int(0.99*float64(n)+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		st.exact["yarn.sim_students_p99_s"] = students[idx].Seconds()
	}
	logBytes, err := w.rm.EventLog().Bytes()
	if err != nil {
		return st, err
	}
	st.digest = hashString(string(logBytes))
	return st, nil
}

func (w *yarnTrace) probes(host hostTimes) (map[string]float64, error) {
	return map[string]float64{
		"yarn.apps_per_s": float64(len(w.workload)) / host.wallS,
		"obs.snapshot_s":  snapshotSeconds(w.reg),
	}, nil
}
