// Package serial implements the standalone MapReduce runner of the
// course's first assignment: the full programming model (splits, sort,
// combiners, counters) executed directly against a plain filesystem with
// no HDFS and no cluster — "using only serial Java commands without any
// HDFS support", in the paper's words. Mappers may optionally run on real
// goroutines, but there is no distribution, no locality and no fault
// tolerance; that contrast is the pedagogical point.
package serial

import (
	"bytes"
	"fmt"
	"sync"

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

// Report summarises one standalone run. It carries no elapsed time: the
// standalone runner has no virtual clock and does no performance
// modelling, and a wall-clock measurement here was the one
// nondeterministic value in an otherwise bit-reproducible run (the
// dettaint lint rule now keeps it out).
type Report struct {
	JobName     string
	MapTasks    int
	ReduceTasks int
	Counters    *mapreduce.Counters
}

// String renders the report in the style of a Hadoop job summary.
func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Job %s completed successfully (standalone)\n", r.JobName)
	fmt.Fprintf(&b, "  Launched map tasks=%d\n", r.MapTasks)
	fmt.Fprintf(&b, "  Launched reduce tasks=%d\n", r.ReduceTasks)
	fmt.Fprintf(&b, "  Counters:\n%s", r.Counters)
	return b.String()
}

// Run executes the job to completion, writing part-r-NNNNN files and a
// _SUCCESS marker under job.OutputPath.
func (r *Runner) Run(job *mapreduce.Job) (*Report, error) {
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
	// par long-lived workers drain the splits in order. Each owns one
	// map-side scratch for its whole run; results land in results[i], so
	// output and counter merge order do not depend on which worker ran what.
	splitCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(par, len(splits)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch mapreduce.MapScratch
			for i := range splitCh {
				split := splits[i]
				ctx := mapreduce.NewTaskContext(job.Name, fmt.Sprintf("attempt_m_%06d_0", i), r.FS, job)
				recs, rstats, err := mapreduce.ReadSplit(readers[split.Path], split)
				if err != nil {
					results[i] = mapResult{err: fmt.Errorf("split %v: %w", split, err)}
					continue
				}
				ctx.Counters.Inc(mapreduce.CtrFileBytesRead, rstats.BytesRead)
				ctx.Counters.Inc(mapreduce.CtrInputDecodedBytes, rstats.BytesDecoded)
				out, err := scratch.ExecuteMap(ctx, job, recs)
				results[i] = mapResult{out: out, ctx: ctx, err: err}
			}
		}()
	}
	for i := range splits {
		splitCh <- i
	}
	close(splitCh)
	wg.Wait()
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
		ow, err := mapreduce.NewOutputWriter(job)
		if err != nil {
			return nil, err
		}
		if _, err := mapreduce.ExecuteReduce(ctx, job, runsByPartition[p], ow); err != nil {
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

	return &Report{
		JobName:     job.Name,
		MapTasks:    len(splits),
		ReduceTasks: nReduce,
		Counters:    total,
	}, nil
}

// ReadOutput concatenates the part files of a completed job in order,
// rendering each back to canonical text whatever its container format —
// so outputs compare byte-identical across text, compressed and
// SequenceFile jobs. A convenience for tests and examples.
func ReadOutput(fs vfs.FileSystem, outputPath string) (string, error) {
	infos, err := fs.List(outputPath)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	for _, fi := range infos {
		if fi.IsDir || fi.Name() == "_SUCCESS" {
			continue
		}
		data, err := vfs.ReadFile(fs, fi.Path)
		if err != nil {
			return "", err
		}
		text, err := iofmt.DecodeToText(fi.Path, data)
		if err != nil {
			return "", fmt.Errorf("decoding %s: %w", fi.Path, err)
		}
		b.Write(text)
	}
	return b.String(), nil
}
