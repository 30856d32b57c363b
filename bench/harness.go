package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one fixed benchmark scenario. setup makes every input and
// oracle from the seed (sizes multiplied by scale; 1 is the real size),
// outside every timed region.
type workload struct {
	name string
	why  string
	// setup returns the instance the iterations run on.
	setup func(seed int64, scale float64) (instance, error)
}

// instance is a set-up workload. One iteration is prepare → run →
// verify on fresh state; only run is timed.
type instance interface {
	// prepare builds the per-iteration state that is not part of the
	// user-visible operation (untimed, but counted in setup_s).
	// traceOff asks for the stack's own obs trace sampling to be switched
	// off for this iteration.
	prepare(rec *recorder, traceOff bool) error
	// run is the timed region: one complete user-visible operation.
	run(rec *recorder) error
	// verify checks the iteration's outputs against the oracles and
	// returns its exact statistics. Untimed.
	verify() (iterStats, error)
	// probes replays the workload's own data through single layers'
	// public functions (traced run only) and returns per-layer metrics.
	probes(host hostTimes) (map[string]float64, error)
}

// hostTimes hands the probes the host-clock readings their derived
// metrics subtract from or divide by.
type hostTimes struct {
	wallS float64            // plain run's median wall_s
	spanS map[string]float64 // traced run's median self time per span name
}

// iterStats are one iteration's deterministic results: equal on every
// iteration of a run and on every run at the same seed.
type iterStats struct {
	simS      float64            // simulated duration of the iteration's work
	work      float64            // records / events / apps / ops done
	attempted int                // operations + oracle checks attempted
	failed    int                // of which failed
	failures  []string           // what failed, for the report
	digest    uint64             // hash of the iteration's output
	exact     map[string]float64 // exact per-layer metrics
}

type config struct {
	seed    int64
	seconds float64 // measuring window (warm-up included) when n == 0
	n       int     // smoke and tests only: fixed number of timed iterations
	warmup  int
	scale   float64
	trace   bool
	outDir  string // where the span files go
}

// How often the untimed and traced parts repeat.
const (
	setupReps       = 3   // least set-ups per run; setup_s is their median
	setupMinSeconds = 0.5 // least time spent repeating set-up
	tracedIters     = 3   // iterations with obs tracing off, then as many with it on, per traced run
	minIters        = 3   // least timed iterations, however short the window
)

// sample is the host-side reading of one timed region.
type sample struct {
	wall, cpu, prep float64 // seconds
	allocBytes      float64
	mallocs         float64
	gcCycles        float64
	gcPauseMS       float64
	heapInuseMB     float64
}

// result is everything one run of one workload produced.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Iterations int                    `json:"iterations"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Digest     string                 `json:"digest"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// metricValue is a reported metric. Q1/Q3/Min/Max describe the spread
// over the timed iterations where there is one, so -compare can tell a
// difference from noise.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return ru
}

// cpuSeconds is the user+sys CPU time the process has used so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// iterate runs one iteration and returns its host sample and exact stats.
func iterate(inst instance, rec *recorder, traceOff bool) (sample, iterStats, error) {
	var s sample
	runtime.GC()
	root := rec.begin("iteration")
	defer rec.end(root)

	t0 := time.Now()
	if err := rec.do("prepare", func() error { return inst.prepare(rec, traceOff) }); err != nil {
		return s, iterStats{}, fmt.Errorf("prepare: %w", err)
	}
	s.prep = time.Since(t0).Seconds()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	err := rec.do("timed", func() error { return inst.run(rec) })
	s.wall = time.Since(t1).Seconds()
	s.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return s, iterStats{}, fmt.Errorf("run: %w", err)
	}
	s.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	s.mallocs = float64(m1.Mallocs - m0.Mallocs)
	s.gcCycles = float64(m1.NumGC - m0.NumGC)
	s.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	s.heapInuseMB = float64(m1.HeapInuse) / 1e6

	var st iterStats
	err = rec.do("verify", func() error {
		var err error
		st, err = inst.verify()
		return err
	})
	if err != nil {
		return s, st, fmt.Errorf("verify: %w", err)
	}
	return s, st, nil
}

// sameStats is the determinism guard: every iteration of a run must
// reproduce the first one's sim time, counts and output digest.
func sameStats(a, b iterStats) error {
	if a.simS != b.simS {
		return fmt.Errorf("sim_s changed between iterations: %v then %v", a.simS, b.simS)
	}
	if a.digest != b.digest {
		return fmt.Errorf("output digest changed between iterations: %016x then %016x", a.digest, b.digest)
	}
	if a.attempted != b.attempted || a.failed != b.failed {
		return fmt.Errorf("attempted/failed changed between iterations: %d/%d then %d/%d",
			a.attempted, a.failed, b.attempted, b.failed)
	}
	for k, v := range a.exact {
		if w, ok := b.exact[k]; !ok || v != w {
			return fmt.Errorf("%s changed between iterations: %v then %v", k, v, w)
		}
	}
	if len(a.exact) != len(b.exact) {
		return fmt.Errorf("exact metric set changed between iterations")
	}
	return nil
}

// runWorkload sets the workload up, measures the plain run and, when
// cfg.trace is set, the traced run and the probes.
func runWorkload(w workload, cfg config) (*result, error) {
	inst, genS, err := setUp(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	samples, first, err := plainRun(inst, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rss := maxRSSMB() // before the traced run and the probes can raise it
	res := summarise(w.name, cfg.seed, genS, samples, first, rss)
	if cfg.trace {
		if err := tracedRun(inst, cfg, first, res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return res, nil
}

// setUp runs the workload's set-up repeatedly, so setup_s is a median
// and not one reading: at least setupReps times, and for at least
// setupMinSeconds so that a millisecond set-up is not at the mercy of one
// scheduling hiccup. It returns the last instance and every set-up time.
func setUp(w workload, cfg config) (instance, []float64, error) {
	var inst instance
	var genS []float64
	for t := time.Now(); len(genS) < setupReps || time.Since(t).Seconds() < setupMinSeconds*cfg.scale; {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg.seed, cfg.scale); err != nil {
			return nil, nil, err
		}
		genS = append(genS, time.Since(t0).Seconds())
	}
	return inst, genS, nil
}

// plainRun is the measured run: warm-up, then timed iterations until the
// window is used up (or cfg.n of them), each checked against the first.
// It is the same whether or not a traced run follows.
func plainRun(inst instance, cfg config) ([]sample, iterStats, error) {
	start := time.Now()
	for i := 0; i < cfg.warmup; i++ {
		if _, _, err := iterate(inst, nil, false); err != nil {
			return nil, iterStats{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	var samples []sample
	var first iterStats
	for i := 0; ; i++ {
		if cfg.n > 0 && i >= cfg.n {
			break
		}
		if cfg.n == 0 && i >= minIters && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		s, st, err := iterate(inst, nil, false)
		if err != nil {
			return nil, iterStats{}, fmt.Errorf("iteration %d: %w", i, err)
		}
		if i == 0 {
			first = st
		} else if err := sameStats(first, st); err != nil {
			return nil, iterStats{}, fmt.Errorf("iteration %d: %w", i, err)
		}
		samples = append(samples, s)
	}
	return samples, first, nil
}

// put records a declared metric; an undeclared name is a harness bug.
func (r *result) put(name string, v float64) {
	def, ok := findMetric(name)
	if !ok {
		panic("undeclared metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.unit}
}

// putSpread records the median of vals with the spread around it.
func (r *result) putSpread(name string, vals []float64) {
	r.put(name, median(vals)) // sorts vals
	m := r.Metrics[name]
	m.Q1, m.Q3 = quantile(vals, 0.25), quantile(vals, 0.75)
	m.Min, m.Max = vals[0], vals[len(vals)-1]
	r.Metrics[name] = m
}

// summarise turns the plain run's samples into the end-to-end metrics
// and the per-layer metrics that need no traced run.
func summarise(name string, seed int64, genS []float64, samples []sample, first iterStats, rssMB float64) *result {
	res := &result{
		Workload:   name,
		Seed:       seed,
		Iterations: len(samples),
		Attempted:  first.attempted,
		Failed:     first.failed,
		Failures:   first.failures,
		Digest:     fmt.Sprintf("%016x", first.digest),
		Metrics:    map[string]metricValue{},
	}
	col := func(f func(sample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	res.put("setup_s", median(genS)+median(col(func(s sample) float64 { return s.prep })))
	res.putSpread("wall_s", col(func(s sample) float64 { return s.wall }))
	res.putSpread("cpu_s", col(func(s sample) float64 { return s.cpu }))
	res.putSpread("alloc_mb", col(func(s sample) float64 { return s.allocBytes / 1e6 }))
	res.putSpread("allocs_k", col(func(s sample) float64 { return s.mallocs / 1e3 }))
	res.put("peak_rss_mb", rssMB)

	wall := res.Metrics["wall_s"]
	res.put("sim_s", first.simS)
	res.put("fail_ratio", float64(first.failed)/float64(first.attempted))
	for k, v := range first.exact {
		res.put(k, v)
	}
	res.put("datagen.gen_s", median(genS))
	res.put("runtime.gc_cycles", median(col(func(s sample) float64 { return s.gcCycles })))
	res.put("runtime.gc_pause_ms", median(col(func(s sample) float64 { return s.gcPauseMS })))
	res.put("runtime.heap_peak_mb", quantile(col(func(s sample) float64 { return s.heapInuseMB }), 1))
	res.put("bench.iterations", float64(len(samples)))
	res.put("bench.work_per_s", first.work/wall.Value)
	res.put("bench.wall_min_s", wall.Min)
	res.put("bench.wall_max_s", wall.Max)
	res.put("sim.events_per_s", first.exact["sim.events"]/wall.Value)
	return res
}

// tracedRun repeats the iterations with harness spans around the calls
// into each layer — first with the stack's own obs tracing sampled out,
// then with it on, so the probes find the registry of a fully traced
// iteration — writes the span file, runs the single-layer probes and adds
// the per-layer host-time metrics to res.
func tracedRun(inst instance, cfg config, first iterStats, res *result) error {
	rec := newRecorder()
	var tracedWall, offWall []float64
	for i := 0; i < 2*tracedIters; i++ {
		rec.iter = i
		off := i < tracedIters
		s, st, err := iterate(inst, rec, off)
		if err != nil {
			return fmt.Errorf("traced iteration %d: %w", i, err)
		}
		if off {
			// Sampling the stack's traces out removes the spans and the
			// persisted trace files, so counts and digest legitimately
			// differ; the oracles must still pass.
			if st.failed != first.failed {
				return fmt.Errorf("iteration with obs tracing off: %d oracle failures %v", st.failed, st.failures)
			}
			offWall = append(offWall, s.wall)
			continue
		}
		tracedWall = append(tracedWall, s.wall)
		if err := sameStats(first, st); err != nil {
			return fmt.Errorf("traced iteration %d: %w", i, err)
		}
	}
	if err := rec.writeJSONL(filepath.Join(cfg.outDir, res.Workload+".trace.jsonl")); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}

	var onSpans []span
	for _, s := range rec.spans {
		if s.Iter >= tracedIters {
			onSpans = append(onSpans, s)
		}
	}
	// A span named after a layer call feeds the metric of that name.
	spanS := selfSecondsByName(onSpans)
	for name, secs := range spanS {
		if _, ok := findMetric(name + "_s"); ok {
			res.put(name+"_s", secs)
		}
	}
	wallS := res.Metrics["wall_s"].Value
	res.put("bench.trace_overhead_ratio", median(tracedWall)/wallS-1)
	res.put("obs.trace_off_saving_ratio", 1-median(offWall)/median(tracedWall))

	probed, err := inst.probes(hostTimes{wallS: wallS, spanS: spanS})
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for k, v := range probed {
		res.put(k, v)
	}
	return nil
}
