// Tier-2 benchmark-regression harness. Recomputes the headline metrics
// in-process at benchSeed and checks two things:
//
//  1. Shape invariants — the paper's qualitative claims (who wins, which
//     direction) hold regardless of cost-model retuning.
//  2. Equality with the committed artifact (experiments.HeadlineArtifact)
//     — sim metrics are deterministic, so a PR can't move one without
//     regenerating the artifact (make bench) and committing it.
//
// Allocation is owned elsewhere: the wall-clock benchmark's allocs_k
// (bench/) and the per-package AllocsPerRun budgets.
//
// Guarded by testing.Short: `go test -short` skips it, tier-1 runs it.
package repro_test

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/experiments"
)

// shapeChecks encodes the qualitative claim behind each headline metric
// as a closed interval [lo, hi] the value must fall in (math.Inf(1) for
// unbounded above).
var shapeChecks = map[string]map[string][2]float64{
	"FIG1": {
		"hpc-slowdown-at-16-nodes": {1, math.Inf(1)}, // shared storage loses
		"locality-%":               {0, 100},
	},
	"E1": {
		"completed-fraction": {0, 1}, // meltdown: some but not all jobs finish
		"recovery-minutes":   {0, math.Inf(1)},
		"dead-datanodes":     {1, math.Inf(1)},
	},
	"E2": {
		"shuffle-reduction-x": {1, math.Inf(1)}, // combiner shrinks the shuffle
		"map-phase-ratio":     {1, math.Inf(1)}, // ...at some map-side cost
	},
	"E3": {
		"plain-vs-imc-shuffle-x": {1, math.Inf(1)}, // in-mapper combining wins
		"imc-memory-bytes":       {1, math.Inf(1)}, // ...by spending memory
	},
	"E4": {"naive-vs-cached-x": {1, math.Inf(1)}}, // caching side data wins
	"E5": {"cluster-speedup-x": {1, math.Inf(1)}}, // cluster beats serial
	"E6": {"failure-rate-at-30m": {0, 1}},         // a rate
	"E7": {"trace-staging-minutes": {0, math.Inf(1)}},
	"E8": {"under-replicated-after-kill": {1, math.Inf(1)}}, // fsck sees the kill
	"E9": {
		"speedup-at-16-nodes": {1, math.Inf(1)}, // scaling helps
		"speculation-gain-x":  {1, math.Inf(1)}, // speculation helps stragglers
	},
	"E10": {
		"gz-map-tasks":          {1, 1},             // whole-stream gzip: one map, always
		"seq-parallelism-x":     {4, math.Inf(1)},   // seq keeps splitting
		"seq-storage-savings-x": {1, math.Inf(1)},   // compression shrinks storage
		"gz-vs-seq-makespan-x":  {1, math.Inf(1)},   // parallel decompression wins
		"seq-read-reduction-x":  {1, math.Inf(1)},   // fewer simulated disk bytes
		"shuffle-compression-x": {1.5, math.Inf(1)}, // wire bytes shrink measurably
	},
	"E11": {
		"audit-events":       {1, math.Inf(1)}, // the run leaves an audit trail
		"job-events":         {4, math.Inf(1)}, // at least submit/init/.../finish
		"history-bytes":      {1, math.Inf(1)}, // history reached HDFS
		"critical-path-len":  {1, math.Inf(1)}, // something bounds completion
		"path-work-fraction": {0, 1},           // a fraction of the makespan
	},
	"E12": {
		"apps":                      {1000, math.Inf(1)}, // the replay is at trace scale
		"students-p99-reduction-x":  {2, math.Inf(1)},    // fair share flattens the deadline queue
		"students-p99-fifo-minutes": {5, math.Inf(1)},    // FIFO melts down at 10x enrollment
		"students-p99-cap-minutes":  {0, 10},             // capacity keeps students interactive
		"preemptions":               {1, math.Inf(1)},    // preemption actually fired
		"node-hours-saved-x":        {1, math.Inf(1)},    // autoscaling returns idle capacity
		"cap-makespan-minutes":      {1, math.Inf(1)},
	},
	"E13": {
		"workloada-ops-per-sec":     {1, math.Inf(1)},
		"workloadc-ops-per-sec":     {1, math.Inf(1)},
		"workloade-ops-per-sec":     {1, math.Inf(1)},
		"workloada-p99-ms":          {0, math.Inf(1)},
		"workloadc-p99-ms":          {0, math.Inf(1)},
		"workloadc-cache-speedup-x": {1, math.Inf(1)}, // cache wins the read-only mix
		"workloadb-cache-speedup-x": {1, math.Inf(1)}, // ...and the 95/5 mix
		"cache-hit-rate":            {0.3, 1},         // Zipf skew makes the cache earn its keep
		"region-splits":             {1, math.Inf(1)}, // the hot region actually split
		"recovery-seconds":          {0, 60},          // crash detected + replayed promptly
		"reassigned-regions":        {1, math.Inf(1)}, // the dead server's regions moved
		"lost-acked-writes":         {0, 0},           // WAL durability: nothing acked is lost
	},
}

func TestBenchRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2: benchmark regression skipped in -short mode")
	}
	rep, err := experiments.Headlines(benchSeed)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Shape invariants.
	for id, checks := range shapeChecks {
		got, ok := rep.Experiments[id]
		if !ok {
			t.Errorf("%s: missing from headline report", id)
			continue
		}
		for name, bounds := range checks {
			v, ok := got[name]
			switch {
			case !ok:
				t.Errorf("%s: missing headline metric %q", id, name)
			case math.IsNaN(v) || math.IsInf(v, 0):
				t.Errorf("%s/%s = %v: not finite", id, name, v)
			case v < bounds[0] || v > bounds[1]:
				t.Errorf("%s/%s = %v: outside shape bounds [%v, %v]", id, name, v, bounds[0], bounds[1])
			}
		}
	}

	// 2. Equality with the committed artifact.
	diffArtifact(t, experiments.HeadlineArtifact, rep)
}

func diffArtifact(t *testing.T, path string, cur *experiments.HeadlineReport) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var prev experiments.HeadlineReport
	if err := json.Unmarshal(data, &prev); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	// Sim metrics are deterministic: any difference is a behaviour change,
	// to be regenerated deliberately and explained in CHANGES.md.
	for id, prevMetrics := range prev.Experiments {
		curMetrics, ok := cur.Experiments[id]
		if !ok {
			t.Errorf("%s: experiment %s disappeared from the headline report", path, id)
			continue
		}
		for name, pv := range prevMetrics {
			if cv, ok := curMetrics[name]; !ok {
				t.Errorf("%s: %s/%s disappeared from the headline report", path, id, name)
			} else if cv != pv {
				t.Errorf("%s: %s/%s = %v, artifact %v: regenerate with `make bench` if intended", path, id, name, cv, pv)
			}
		}
		for name := range curMetrics {
			if _, ok := prevMetrics[name]; !ok {
				t.Errorf("%s: %s/%s is not in the artifact: regenerate with `make bench`", path, id, name)
			}
		}
	}
	for id := range cur.Experiments {
		if _, ok := prev.Experiments[id]; !ok {
			t.Errorf("%s: experiment %s is not in the artifact: regenerate with `make bench`", path, id)
		}
	}
}
