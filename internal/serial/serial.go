// Package serial implements the standalone MapReduce runner of the
// course's first assignment: the full programming model (splits, sort,
// combiners, counters) executed directly against a plain filesystem with
// no HDFS and no cluster — "using only serial Java commands without any
// HDFS support", in the paper's words. Mappers may optionally run on real
// goroutines, but there is no distribution, no locality and no fault
// tolerance; that contrast is the pedagogical point.
package serial

import (
	"fmt"

	"repro/internal/iofmt"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Runner executes jobs against a single filesystem.
type Runner struct {
	// FS is the filesystem holding inputs, side files and outputs.
	FS vfs.FileSystem
	// Parallelism is the number of concurrent map tasks (default 1: fully
	// serial, matching the assignment's baseline).
	Parallelism int
	// Obs, when set, receives standalone-run counters (task launches and
	// record/byte volumes). No spans or durations are recorded: the
	// standalone runner has no virtual clock, and wall-clock times would
	// break snapshot determinism.
	Obs *obs.Registry
}

// Run executes the job to completion, writing part-r-NNNNN files and a
// _SUCCESS marker under job.OutputPath, and returns the job's counters.
// It measures no elapsed time: the standalone runner has no virtual clock
// and does no performance modelling, and a wall-clock measurement here
// would be the one nondeterministic value in an otherwise
// bit-reproducible run (the dettaint lint rule keeps it out).
func (r *Runner) Run(job *mapreduce.Job) (*mapreduce.Counters, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if r.FS == nil {
		return nil, fmt.Errorf("serial: runner has no filesystem")
	}
	if vfs.Exists(r.FS, job.OutputPath) {
		return nil, &vfs.PathError{Op: "run", Path: job.OutputPath, Err: vfs.ErrExist}
	}
	splits, err := mapreduce.ComputeSplits(r.FS, job.InputPaths, job.EffectiveSplitSize())
	if err != nil {
		return nil, fmt.Errorf("serial: computing splits: %w", err)
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("serial: no input data under %v", job.InputPaths)
	}

	total := mapreduce.NewCounters()
	nReduce := job.Reducers()

	// Map phase: each task owns its context and counters; results are
	// merged afterwards so there is no cross-task locking.
	type mapResult struct {
		out *mapreduce.MapOutput
		ctx *mapreduce.TaskContext
		err error
	}
	results := make([]mapResult, len(splits))
	par := r.Parallelism
	if par <= 0 {
		par = 1
	}
	// One ranged reader per input file, shared by that file's splits, so a
	// file is read once per job however many splits it has.
	readers := map[string]iofmt.RangeReaderFunc{}
	for _, split := range splits {
		if readers[split.Path] == nil {
			readers[split.Path] = mapreduce.FSRangeReader(r.FS, split.Path)
		}
	}
	// par workers (inline when par is 1) drain the splits in order, each
	// on one map-side scratch of its own; results land in results[i], so
	// output and counter merge order do not depend on which worker ran what.
	scratches := make([]*mapreduce.MapScratch, min(par, len(splits)))
	for w := range scratches {
		scratches[w] = new(mapreduce.MapScratch)
	}
	mapreduce.RunMapTasks(len(splits), scratches, func(i int, scratch *mapreduce.MapScratch) {
		split := splits[i]
		ctx := mapreduce.NewTaskContext(job.Name, fmt.Sprintf("attempt_m_%06d_0", i), r.FS, job)
		recs, rstats, err := mapreduce.ReadSplit(readers[split.Path], split)
		if err != nil {
			results[i] = mapResult{err: fmt.Errorf("split %v: %w", split, err)}
			return
		}
		ctx.Counters.Inc(mapreduce.CtrFileBytesRead, rstats.BytesRead)
		ctx.Counters.Inc(mapreduce.CtrInputDecodedBytes, rstats.BytesDecoded)
		out, err := scratch.ExecuteMap(ctx, job, recs)
		results[i] = mapResult{out: out, ctx: ctx, err: err}
	})
	runsByPartition := make([][][]mapreduce.Pair, nReduce)
	for _, res := range results {
		if res.err != nil {
			return nil, res.err
		}
		total.Merge(res.ctx.Counters)
		for p, pairs := range res.out.Partitions {
			runsByPartition[p] = append(runsByPartition[p], pairs)
		}
	}

	// Reduce phase, sequential: one output file per reducer.
	if err := r.FS.Mkdir(job.OutputPath); err != nil {
		return nil, err
	}
	// One reduce scratch for the sequential loop: each part is written out
	// (vfs.WriteFile copies it) before the next task reuses the buffer.
	var reduceScratch mapreduce.ReduceScratch
	for p := 0; p < nReduce; p++ {
		ctx := mapreduce.NewTaskContext(job.Name, fmt.Sprintf("attempt_r_%06d_0", p), r.FS, job)
		// Even with no network, account the map->reduce handoff volume the
		// way the cluster does, so SHUFFLE_BYTES exists (and means the same
		// logical bytes) in both runtimes.
		var shuffled int64
		for _, run := range runsByPartition[p] {
			for _, kv := range run {
				shuffled += kv.Bytes()
			}
		}
		ctx.Counters.Inc(mapreduce.CtrShuffleBytes, shuffled)
		ow, err := reduceScratch.NewOutputWriter(job)
		if err != nil {
			return nil, err
		}
		if _, err := reduceScratch.ExecuteReduce(ctx, job, runsByPartition[p], ow); err != nil {
			return nil, err
		}
		data, ostats, err := ow.Finish()
		if err != nil {
			return nil, err
		}
		outPath := vfs.Join(job.OutputPath, job.OutputPartName(p))
		if err := vfs.WriteFile(r.FS, outPath, data); err != nil {
			return nil, err
		}
		ctx.Counters.Inc(mapreduce.CtrFileBytesWritten, int64(len(data)))
		ctx.Counters.Inc(mapreduce.CtrOutputRawBytes, ostats.RawBytes)
		total.Merge(ctx.Counters)
	}
	if err := vfs.WriteFile(r.FS, vfs.Join(job.OutputPath, "_SUCCESS"), nil); err != nil {
		return nil, err
	}
	total.Inc(mapreduce.CtrLaunchedMaps, int64(len(splits)))
	total.Inc(mapreduce.CtrLaunchedReduces, int64(nReduce))

	r.Obs.Counter("serial.jobs_run").Inc()
	r.Obs.Counter("serial.map_tasks").Add(int64(len(splits)))
	r.Obs.Counter("serial.reduce_tasks").Add(int64(nReduce))
	r.Obs.Counter("serial.map_input_records").Add(total.Get(mapreduce.CtrMapInputRecords))
	r.Obs.Counter("serial.bytes_read").Add(total.Get(mapreduce.CtrFileBytesRead))
	r.Obs.Counter("serial.bytes_written").Add(total.Get(mapreduce.CtrFileBytesWritten))
	r.Obs.Counter("serial.bytes_decoded").Add(total.Get(mapreduce.CtrInputDecodedBytes))

	return total, nil
}
