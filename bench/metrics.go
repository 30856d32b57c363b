package main

import (
	"math"
	"sort"
)

// metricDef declares one metric: the names are normative (later issues
// cite them verbatim) and BENCHMARK.json must list exactly these — the
// manifest test parses the file and compares.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening -compare tolerates; only end-to-end
	// metrics carry one.
	bound float64
	// exact marks sim-clock values and counts: deterministic for a seed,
	// identical on every iteration, compared for equality by -compare,
	// and emitted by the plain run too.
	exact bool
}

// Units. Host-clock times are "s"/"ms"/"ns"; sim-clock times say so in
// the unit, so no reader has to look up which clock a number is on.
const (
	uS      = "s"
	uSimS   = "sim_s"
	uSimMS  = "sim_ms"
	uMB     = "MB"
	uCount  = "count"
	uRatio  = "ratio"
	uPerS   = "1/s"
	uKilo   = "1e3"
	uMBPerS = "MB/s"
)

// endToEnd are the metrics a user of the stack sees, reported by the
// plain run of every workload. sim_s and fail_ratio sit in perLayer
// (exact) because a benchmark-contract end-to-end metric must never be 0
// and must vary run to run; the harness still gates both on every run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: uS, better: "lower", bound: 0.25},
	{name: "wall_s", unit: uS, better: "lower", bound: 0.25},
	{name: "cpu_s", unit: uS, better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: uMB, better: "lower", bound: 0.15},
	{name: "allocs_k", unit: uKilo, better: "lower", bound: 0.05},
	{name: "peak_rss_mb", unit: uMB, better: "lower", bound: 0.15},
}

// perLayer lists every per-layer metric. Every workload emits every name;
// a layer a workload does not touch reports 0.
var perLayer = []metricDef{
	{name: "sim_s", unit: uSimS, better: "lower", exact: true},
	{name: "fail_ratio", unit: uRatio, better: "lower", exact: true},

	{name: "sim.events", unit: uCount, better: "lower", exact: true},
	{name: "sim.events_per_s", unit: uPerS, better: "higher"},
	{name: "sim.bare_events_per_s", unit: uPerS, better: "higher"},
	{name: "sim.bare_schedule_ns", unit: "ns", better: "lower"},

	{name: "hdfs.idle_s", unit: uS, better: "lower"},
	{name: "mrcluster.idle_s", unit: uS, better: "lower"},
	{name: "hdfs.nn_heartbeats", unit: uCount, better: "lower", exact: true},

	{name: "core.new_s", unit: uS, better: "lower"},

	{name: "hdfs.stage_s", unit: uS, better: "lower"},
	{name: "hdfs.stage_mb_per_s", unit: uMBPerS, better: "higher"},
	{name: "hdfs.readback_s", unit: uS, better: "lower"},
	{name: "hdfs.bytes_written", unit: uCount, better: "lower", exact: true},
	{name: "hdfs.blocks_written", unit: uCount, better: "lower", exact: true},
	{name: "hdfs.local_read_ratio", unit: uRatio, better: "higher", exact: true},

	{name: "mrcluster.run_s", unit: uS, better: "lower"},
	{name: "mrcluster.run_minus_serial_s", unit: uS, better: "lower"},
	{name: "mrcluster.schedule_passes", unit: uCount, better: "lower", exact: true},
	{name: "mrcluster.maps_launched", unit: uCount, better: "lower", exact: true},
	{name: "mrcluster.data_local_ratio", unit: uRatio, better: "higher", exact: true},
	{name: "mrcluster.sim_map_phase_s", unit: uSimS, better: "lower", exact: true},
	{name: "mrcluster.sim_reduce_phase_s", unit: uSimS, better: "lower", exact: true},

	{name: "serial.job_s", unit: uS, better: "lower"},

	{name: "mapreduce.read_split_s", unit: uS, better: "lower"},
	{name: "mapreduce.execute_map_s", unit: uS, better: "lower"},
	{name: "mapreduce.execute_map_alloc_mb", unit: uMB, better: "lower"},
	{name: "mapreduce.sort_s", unit: uS, better: "lower"},
	{name: "mapreduce.merge_s", unit: uS, better: "lower"},
	{name: "mapreduce.execute_reduce_s", unit: uS, better: "lower"},
	{name: "mapreduce.map_output_records", unit: uCount, better: "lower", exact: true},
	{name: "mapreduce.shuffle_bytes", unit: uCount, better: "lower", exact: true},

	{name: "jobs.map_fn_s", unit: uS, better: "lower"},
	{name: "jobs.combine_fn_s", unit: uS, better: "lower"},
	{name: "jobs.reduce_fn_s", unit: uS, better: "lower"},

	{name: "iofmt.frame_s", unit: uS, better: "lower"},

	{name: "yarn.new_s", unit: uS, better: "lower"},
	{name: "yarn.submit_s", unit: uS, better: "lower"},
	{name: "yarn.apps_per_s", unit: uPerS, better: "higher"},
	{name: "yarn.rm_events", unit: uCount, better: "lower", exact: true},
	{name: "yarn.containers_allocated", unit: uCount, better: "lower", exact: true},
	{name: "yarn.preemptions", unit: uCount, better: "lower", exact: true},
	{name: "yarn.scale_ups", unit: uCount, better: "lower", exact: true},
	{name: "yarn.node_hours", unit: "sim_h", better: "lower", exact: true},
	{name: "yarn.sim_students_p99_s", unit: uSimS, better: "lower", exact: true},

	{name: "regionserver.setup_s", unit: uS, better: "lower"},
	{name: "regionserver.workload_s", unit: uS, better: "lower"},
	{name: "regionserver.ops_per_s", unit: uPerS, better: "higher"},
	{name: "regionserver.sim_ops_per_s", unit: "1/sim_s", better: "higher", exact: true},
	{name: "regionserver.sim_p50_ms", unit: uSimMS, better: "lower", exact: true},
	{name: "regionserver.sim_p99_ms", unit: uSimMS, better: "lower", exact: true},
	{name: "regionserver.cache_hit_ratio", unit: uRatio, better: "higher", exact: true},
	{name: "regionserver.cache_invalidations", unit: uCount, better: "lower", exact: true},
	{name: "regionserver.splits", unit: uCount, better: "lower", exact: true},
	{name: "regionserver.meta_refreshes", unit: uCount, better: "lower", exact: true},
	{name: "regionserver.retried_ops", unit: uCount, better: "lower", exact: true},

	{name: "kvstore.put_s", unit: uS, better: "lower"},
	{name: "kvstore.get_s", unit: uS, better: "lower"},
	{name: "kvstore.scan_s", unit: uS, better: "lower"},
	{name: "kvstore.flushes", unit: uCount, better: "lower", exact: true},
	{name: "kvstore.compactions", unit: uCount, better: "lower", exact: true},
	{name: "kvstore.flush_bytes", unit: uCount, better: "lower", exact: true},
	{name: "kvstore.compact_bytes", unit: uCount, better: "lower", exact: true},
	{name: "kvstore.wal_bytes", unit: uCount, better: "lower", exact: true},
	{name: "kvstore.write_amp", unit: uRatio, better: "lower", exact: true},
	{name: "vfs.store_bytes_written", unit: uCount, better: "lower", exact: true},
	{name: "vfs.store_files_created", unit: uCount, better: "lower", exact: true},

	{name: "obs.spans", unit: uCount, better: "lower", exact: true},
	{name: "obs.snapshot_s", unit: uS, better: "lower"},
	{name: "obs.trace_off_saving_ratio", unit: uRatio, better: "lower"},

	{name: "datagen.gen_s", unit: uS, better: "lower"},

	{name: "runtime.gc_cycles", unit: uCount, better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_peak_mb", unit: uMB, better: "lower"},

	{name: "bench.iterations", unit: uCount, better: "higher"},
	{name: "bench.work_per_s", unit: uPerS, better: "higher"},
	{name: "bench.wall_min_s", unit: uS, better: "lower"},
	{name: "bench.wall_max_s", unit: uS, better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: uRatio, better: "lower"},
}

func findMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func median(vals []float64) float64 {
	return quantile(vals, 0.5)
}

// quantile interpolates linearly between the order statistics of vals
// (which it sorts in place); NaN for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}
