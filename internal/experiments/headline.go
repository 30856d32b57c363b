package experiments

import (
	"encoding/json"
	"fmt"
)

// Headline extraction: the small set of "who wins, by what factor"
// numbers each experiment's claim turns on. One extraction feeds both
// `go test -bench` (via b.ReportMetric in bench_test.go) and the
// regression artifact written by cmd/benchreport, so the two views can
// never drift apart.

// HeadlineArtifact is the committed headline-metrics artifact, relative
// to the repo root: cmd/benchreport (`make bench`) writes it and
// TestBenchRegression compares against it. There is one; a PR that moves
// a metric on purpose overwrites it and says why in CHANGES.md. Wall-
// clock numbers and their history live in bench/ (BENCHMARK.json).
const HeadlineArtifact = "BENCH_pr10.json"

// HeadlineIDs lists the experiments that contribute headline metrics, in
// presentation order.
var HeadlineIDs = []string{"FIG1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}

// HeadlineMetrics extracts id's headline metrics from a finished run.
// Metric names ending in "-x" are ratios where >1 means the paper's
// claimed winner won; the regression test keys its direction checks on
// that convention.
func HeadlineMetrics(id string, r *Result) map[string]float64 {
	switch id {
	case "FIG1":
		res := r.Raw.(*Fig1Result)
		last := res.Points[len(res.Points)-1]
		return map[string]float64{
			"hpc-slowdown-at-16-nodes": last.Slowdown,
			"locality-%":               last.LocalityPercent,
		}
	case "E1":
		res := r.Raw.(*MeltdownResult)
		return map[string]float64{
			"completed-fraction": res.CompletedFraction(),
			"recovery-minutes":   res.RecoveryTime.Minutes(),
			"dead-datanodes":     float64(res.DeadDataNodes),
		}
	case "E2":
		res := r.Raw.(*E2Result)
		return map[string]float64{
			"shuffle-reduction-x": float64(res.Plain.ShuffleBytes) / float64(res.Combiner.ShuffleBytes),
			"map-phase-ratio":     float64(res.Combiner.MapPhase) / float64(res.Plain.MapPhase),
		}
	case "E3":
		res := r.Raw.(*E3Result)
		return map[string]float64{
			"plain-vs-imc-shuffle-x": float64(res.Plain.ShuffleBytes) / float64(res.InMapper.ShuffleBytes),
			"imc-memory-bytes":       float64(res.InMapper.MemoryPeak),
		}
	case "E4":
		res := r.Raw.(*E4Result)
		return map[string]float64{"naive-vs-cached-x": res.Ratio}
	case "E5":
		res := r.Raw.(*E5Result)
		return map[string]float64{"cluster-speedup-x": res.Speedup}
	case "E6":
		res := r.Raw.(*E6Result)
		return map[string]float64{
			"failure-rate-at-30m": res.Points[len(res.Points)-1].FailureRate,
		}
	case "E7":
		res := r.Raw.(*E7Result)
		m := map[string]float64{}
		for _, p := range res.Points {
			if p.Size == 171<<30 {
				m["trace-staging-minutes"] = p.Staging.Minutes()
			}
		}
		return m
	case "E8":
		res := r.Raw.(*E8Result)
		return map[string]float64{
			"under-replicated-after-kill": float64(res.UnderReplicatedAfterKill),
		}
	case "E9":
		res := r.Raw.(*E9Result)
		return map[string]float64{
			"speedup-at-16-nodes": res.Points[len(res.Points)-1].Speedup,
			"speculation-gain-x":  res.SpeculationGain,
		}
	case "E10":
		res := r.Raw.(*E10Result)
		text, gz, seq := res.e10Format("text"), res.e10Format("gz"), res.e10Format("seq-gzip")
		return map[string]float64{
			"gz-map-tasks":          float64(gz.MapTasks),
			"seq-parallelism-x":     float64(seq.MapTasks) / float64(gz.MapTasks),
			"seq-storage-savings-x": float64(text.FileBytes) / float64(seq.FileBytes),
			"gz-vs-seq-makespan-x":  float64(gz.Makespan) / float64(seq.Makespan),
			"seq-read-reduction-x":  float64(text.BytesRead) / float64(seq.BytesRead),
			"shuffle-compression-x": float64(res.ShuffleRawBytes) / float64(res.ShuffleWireBytes),
		}
	case "E11":
		res := r.Raw.(*E11Result)
		return map[string]float64{
			"audit-events":       float64(res.AuditEvents),
			"job-events":         float64(res.JobEvents),
			"history-bytes":      float64(res.BytesPersisted),
			"critical-path-len":  float64(res.CriticalPathLen),
			"path-work-fraction": res.PathWorkFraction,
		}
	case "E12":
		res := r.Raw.(*E12Result)
		fifoP99 := res.FIFO.QueueStats("students").P99
		capP99 := res.Capacity.QueueStats("students").P99
		return map[string]float64{
			"apps":                      float64(res.Apps),
			"students-p99-reduction-x":  float64(fifoP99) / float64(capP99),
			"students-p99-cap-minutes":  capP99.Minutes(),
			"students-p99-fifo-minutes": fifoP99.Minutes(),
			"preemptions":               float64(res.Capacity.Preemptions),
			"node-hours-saved-x":        res.FIFO.NodeHours / res.Capacity.NodeHours,
			"cap-makespan-minutes":      res.Capacity.Makespan.Minutes(),
		}
	case "E13":
		res := r.Raw.(*E13Result)
		aPlain := res.Run("a", false)
		cPlain, cCached := res.Run("c", false), res.Run("c", true)
		bPlain, bCached := res.Run("b", false), res.Run("b", true)
		ePlain := res.Run("e", false)
		return map[string]float64{
			"workloada-ops-per-sec":     aPlain.OpsPerSec,
			"workloada-p99-ms":          float64(aPlain.P99.Milliseconds()),
			"workloadc-ops-per-sec":     cPlain.OpsPerSec,
			"workloadc-p99-ms":          float64(cPlain.P99.Milliseconds()),
			"workloade-ops-per-sec":     ePlain.OpsPerSec,
			"workloadc-cache-speedup-x": cCached.OpsPerSec / cPlain.OpsPerSec,
			"workloadb-cache-speedup-x": bCached.OpsPerSec / bPlain.OpsPerSec,
			"cache-hit-rate":            cCached.CacheHitRate,
			"region-splits":             float64(aPlain.Splits),
			"recovery-seconds":          res.Crash.RecoverySeconds,
			"reassigned-regions":        float64(res.Crash.Reassigns),
			"lost-acked-writes":         float64(res.Crash.LostAckedWrites),
		}
	}
	return nil
}

// HeadlineReport is the machine-readable benchmark artifact
// (BENCH_<pr>.json): every headline metric at a fixed seed.
type HeadlineReport struct {
	Seed        int64                         `json:"seed"`
	Experiments map[string]map[string]float64 `json:"experiments"`
}

// Headlines runs every headline experiment at seed and collects the
// extracted metrics. Deterministic: the same seed yields the same report.
func Headlines(seed int64) (*HeadlineReport, error) {
	rep := &HeadlineReport{
		Seed:        seed,
		Experiments: map[string]map[string]float64{},
	}
	for _, id := range HeadlineIDs {
		spec, ok := Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %s", id)
		}
		r, err := spec.Run(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		rep.Experiments[id] = HeadlineMetrics(id, r)
	}
	return rep, nil
}

// JSON renders the report stably: indented, keys sorted (encoding/json
// sorts map keys), trailing newline.
func (hr *HeadlineReport) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(hr, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
