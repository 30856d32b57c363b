package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/iofmt"
	"repro/internal/kvstore"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Probes isolate one layer: they replay the workload's own data through
// that layer's public functions, with nothing else running, so a change
// in a probe's time is a change in that layer. They run once, after the
// traced iterations.

// stopwatch accumulates host time over several intervals.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start()           { s.t0 = time.Now() }
func (s *stopwatch) stop()            { s.total += time.Since(s.t0) }
func (s *stopwatch) seconds() float64 { return s.total.Seconds() }

func snapshotSeconds(reg *obs.Registry) float64 {
	t0 := time.Now()
	if _, err := reg.SnapshotJSON(); err != nil {
		return 0
	}
	return time.Since(t0).Seconds()
}

// --- wc-combiner / terasort ---

// timedMapper and timedReducer wrap a job's user functions to sum the
// host time spent inside them (emit included: the framework's emitter
// runs inside the user's call). Neither benchmark job has Setup or Close
// hooks, so the wrappers do not forward them.
type timedMapper struct {
	inner mapreduce.Mapper
	sw    *stopwatch
}

func (m timedMapper) Map(ctx *mapreduce.TaskContext, off int64, line string, out mapreduce.Emitter) error {
	m.sw.start()
	err := m.inner.Map(ctx, off, line, out)
	m.sw.stop()
	return err
}

type timedReducer struct {
	inner mapreduce.Reducer
	sw    *stopwatch
}

func (r timedReducer) Reduce(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, out mapreduce.Emitter) error {
	r.sw.start()
	err := r.inner.Reduce(ctx, key, values, out)
	r.sw.stop()
	return err
}

func (w *mrJob) probes(host hostTimes) (map[string]float64, error) {
	mem := vfs.NewMemFS()
	if err := vfs.WriteFile(mem, w.path, w.data); err != nil {
		return nil, err
	}
	job, err := w.build(mem)
	if err != nil {
		return nil, err
	}

	out := map[string]float64{
		"obs.snapshot_s": snapshotSeconds(w.c.Obs),
	}
	if s := host.spanS["hdfs.stage"]; s > 0 {
		out["hdfs.stage_mb_per_s"] = float64(len(w.data)) / 1e6 / s
	}

	// The whole job with no simulator, HDFS or JobTracker under it, as the
	// standalone runner runs it: its own 4 MiB splits, not one per block
	// (on a plain filesystem every split re-reads the whole input file, so
	// block-sized splits would time mostly that).
	runtime.GC()
	t0 := time.Now()
	if _, err := (&serial.Runner{FS: mem}).Run(job); err != nil {
		return nil, fmt.Errorf("serial run: %w", err)
	}
	out["serial.job_s"] = time.Since(t0).Seconds()
	out["mrcluster.run_minus_serial_s"] = host.spanS["mrcluster.run"] - out["serial.job_s"]
	if err := mem.Remove(outputDir, true); err != nil {
		return nil, err
	}

	// The same again with the user functions timed.
	var mapSW, combineSW, reduceSW stopwatch
	timed := *job
	timed.NewMapper = func() mapreduce.Mapper { return timedMapper{job.NewMapper(), &mapSW} }
	timed.NewReducer = func() mapreduce.Reducer { return timedReducer{job.NewReducer(), &reduceSW} }
	if job.NewCombiner != nil {
		timed.NewCombiner = func() mapreduce.Reducer { return timedReducer{job.NewCombiner(), &combineSW} }
	}
	if _, err := (&serial.Runner{FS: mem}).Run(&timed); err != nil {
		return nil, fmt.Errorf("timed serial run: %w", err)
	}
	out["jobs.map_fn_s"] = mapSW.seconds()
	out["jobs.combine_fn_s"] = combineSW.seconds()
	out["jobs.reduce_fn_s"] = reduceSW.seconds()

	// The task-side pipeline, one public function at a time, over one
	// split per HDFS block as on the cluster. Splits are cut from the
	// bytes in memory, the way a task gets a ranged HDFS read.
	splits, err := mapreduce.ComputeSplits(mem, job.InputPaths, mrBlockSize)
	if err != nil {
		return nil, err
	}
	ranged := iofmt.BytesRangeReader(w.data)
	var readSW, mapExecSW, sortSW, mergeSW, reduceExecSW, frameSW stopwatch
	var mapAlloc uint64
	var outputs []*mapreduce.MapOutput
	for i, split := range splits {
		readSW.start()
		recs, _, err := mapreduce.ReadSplit(ranged, split)
		readSW.stop()
		if err != nil {
			return nil, err
		}
		ctx := mapreduce.NewTaskContext(job.Name, fmt.Sprintf("probe_m_%06d", i), mem, job)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		mapExecSW.start()
		mo, err := mapreduce.ExecuteMap(ctx, job, recs)
		mapExecSW.stop()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		mapAlloc += m1.TotalAlloc - m0.TotalAlloc
		outputs = append(outputs, mo)

		unsorted, err := rawMapOutput(ctx, job, recs)
		if err != nil {
			return nil, err
		}
		sortSW.start()
		mapreduce.SortPairs(unsorted)
		sortSW.stop()
	}
	for p := 0; p < job.Reducers(); p++ {
		var runs [][]mapreduce.Pair
		for _, mo := range outputs {
			runs = append(runs, mo.Partitions[p])
		}
		mergeSW.start()
		merged := mapreduce.MergeSortedRuns(runs)
		mergeSW.stop()

		ctx := mapreduce.NewTaskContext(job.Name, fmt.Sprintf("probe_r_%06d", p), mem, job)
		ow, err := mapreduce.NewOutputWriter(job)
		if err != nil {
			return nil, err
		}
		reduceExecSW.start()
		_, err = mapreduce.ExecuteReduce(ctx, job, runs, ow)
		reduceExecSW.stop()
		if err != nil {
			return nil, err
		}

		// Frame and re-read the partition's records, as every flat record
		// buffer in the stack does.
		vals := make([]string, len(merged))
		for i, kv := range merged {
			vals[i] = string(kv.Val)
		}
		frameSW.start()
		var buf []byte
		for i, kv := range merged {
			buf = iofmt.AppendRecordString(buf, kv.Key, vals[i])
		}
		for len(buf) > 0 {
			if _, _, buf, err = iofmt.ConsumeRecord(buf); err != nil {
				return nil, err
			}
		}
		frameSW.stop()
	}
	out["mapreduce.read_split_s"] = readSW.seconds()
	out["mapreduce.execute_map_s"] = mapExecSW.seconds()
	out["mapreduce.execute_map_alloc_mb"] = float64(mapAlloc) / 1e6
	out["mapreduce.sort_s"] = sortSW.seconds()
	out["mapreduce.merge_s"] = mergeSW.seconds()
	out["mapreduce.execute_reduce_s"] = reduceExecSW.seconds()
	out["iofmt.frame_s"] = frameSW.seconds()
	return out, nil
}

// rawMapOutput runs the job's mapper over recs and returns the pairs in
// emission order, unsorted — the input SortPairs sees inside ExecuteMap.
func rawMapOutput(ctx *mapreduce.TaskContext, job *mapreduce.Job, recs []mapreduce.Record) ([]mapreduce.Pair, error) {
	var pairs []mapreduce.Pair
	emit := mapreduce.EmitterFunc(func(key string, value mapreduce.Value) error {
		pairs = append(pairs, mapreduce.Pair{Key: key, Val: value.EncodeValue()})
		return nil
	})
	mapper := job.NewMapper()
	for _, rec := range recs {
		if err := mapper.Map(ctx, rec.Offset, rec.Line, emit); err != nil {
			return nil, err
		}
	}
	return pairs, nil
}

// --- idle-cluster ---

func (w *idleCluster) probes(host hostTimes) (map[string]float64, error) {
	out := map[string]float64{"obs.snapshot_s": snapshotSeconds(w.c.Obs)}

	// A bare engine carrying the idle cluster's tickers with empty
	// handlers: per node a DataNode heartbeat, a block report and a
	// TaskTracker heartbeat; once each the NameNode's liveness and
	// replication monitors and the JobTracker's expiry check. What is
	// left of idle-cluster's wall_s above this is handler cost.
	hcfg, mcfg := w.c.DFS.NN.Config(), w.c.MR.Config()
	eng := sim.NewEngine()
	nop := func() {}
	for i := 0; i < idleNodes; i++ {
		eng.Every(hcfg.HeartbeatInterval, nop)
		eng.Every(hcfg.BlockReportInterval, nop)
		eng.Every(mcfg.HeartbeatInterval, nop)
	}
	eng.Every(hcfg.HeartbeatInterval, nop)
	eng.Every(hcfg.ReplMonitorInterval, nop)
	eng.Every(mcfg.HeartbeatInterval, nop)
	runtime.GC()
	t0 := time.Now()
	eng.Advance(w.idle)
	out["sim.bare_events_per_s"] = float64(eng.Processed) / time.Since(t0).Seconds()

	// One-shot events: schedule a million, fire them all.
	const oneShots = 1_000_000
	eng = sim.NewEngine()
	runtime.GC()
	t0 = time.Now()
	for i := 0; i < oneShots; i++ {
		eng.Schedule(sim.Time(i), nop)
	}
	eng.Run()
	out["sim.bare_schedule_ns"] = float64(time.Since(t0).Nanoseconds()) / oneShots

	// HDFS alone on the same topology: no JobTracker, no TaskTrackers.
	eng = sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(idleNodes, idleRacks))
	if _, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: mrHDFS, Seed: w.seed}); err != nil {
		return nil, err
	}
	runtime.GC()
	t0 = time.Now()
	eng.Advance(w.idle)
	out["hdfs.idle_s"] = time.Since(t0).Seconds()
	out["mrcluster.idle_s"] = host.wallS - out["hdfs.idle_s"]
	return out, nil
}

// --- kv-read / kv-update ---

func (w *kvServing) probes(host hostTimes) (map[string]float64, error) {
	out := map[string]float64{"obs.snapshot_s": snapshotSeconds(w.reg)}
	if s := host.spanS["regionserver.workload"]; s > 0 {
		out["regionserver.ops_per_s"] = float64(len(w.ops)) / s
	}

	// One kvstore table, no region servers above it: put every loaded row
	// through the WAL + MemStore path, flush, then read by the workload's
	// own key stream and scan.
	tbl, err := kvstore.Open(vfs.NewMemFS(), "/probe", kvConfig())
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t0 := time.Now()
	for _, kv := range w.load {
		if err := tbl.Put(kv.Key, kv.Value); err != nil {
			return nil, err
		}
	}
	out["kvstore.put_s"] = time.Since(t0).Seconds()
	if err := tbl.Flush(); err != nil {
		return nil, err
	}

	gets := w.ops
	if len(gets) > 100000 {
		gets = gets[:100000]
	}
	t0 = time.Now()
	for _, op := range gets {
		if _, err := tbl.Get(op.Key); err != nil {
			return nil, fmt.Errorf("get %s: %w", op.Key, err)
		}
	}
	out["kvstore.get_s"] = time.Since(t0).Seconds()

	scans := gets
	if len(scans) > 1000 {
		scans = scans[:1000]
	}
	t0 = time.Now()
	for _, op := range scans {
		if _, _, err := tbl.ScanRange(op.Key, "", 100); err != nil {
			return nil, err
		}
	}
	out["kvstore.scan_s"] = time.Since(t0).Seconds()
	return out, nil
}
