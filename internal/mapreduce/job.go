package mapreduce

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/iofmt"
	"repro/internal/vfs"
)

// Default tuning knobs (Hadoop 1.x era defaults, scaled for teaching).
const (
	DefaultSplitSize   = 4 << 20 // stand-alone mode split size
	DefaultNumReducers = 1
)

// Job describes one MapReduce program: the user code, the data paths and
// the tuning knobs. The same Job value is accepted by the serial runner
// and the distributed runtime.
type Job struct {
	// Name labels the job in reports.
	Name string
	// NewMapper constructs a fresh Mapper per map task (tasks may hold
	// per-task state, e.g. in-mapper combining aggregates).
	NewMapper func() Mapper
	// NewReducer constructs a fresh Reducer per reduce task.
	NewReducer func() Reducer
	// NewCombiner optionally constructs a map-side combiner. As in Hadoop,
	// it must be an associative, commutative reduction whose output type
	// equals its input type — running it zero or more times must not
	// change the final answer.
	NewCombiner func() Reducer
	// DecodeValue decodes the values the mappers (and combiner) emit.
	DecodeValue ValueDecoder
	// NumReducers is the number of reduce partitions (default 1).
	NumReducers int
	// Partition routes keys to reducers (default HashPartition).
	Partition PartitionFunc
	// GroupKey, when set, is Hadoop's grouping comparator: reduce groups
	// form over GroupKey(key) while values still arrive in full-key sort
	// order — the secondary-sort pattern. Partition must route by the
	// same group key, or a group's records scatter across reducers.
	GroupKey func(key string) string
	// InputPaths are files or directories on the job filesystem.
	InputPaths []string
	// OutputPath is a directory that must not already exist (Hadoop
	// refuses to clobber output); part-r-NNNNN files are written there.
	OutputPath string
	// OutputFormat selects the reduce-output container: "" or "text"
	// writes "key<TAB>value" lines; "seq" writes SequenceFiles whose
	// records keep key and value separate, so chained jobs read them
	// back without re-parsing and they stay splittable when compressed.
	OutputFormat string
	// OutputCodec names the iofmt codec compressing the output ("",
	// "none", "gzip", "lzs"). Text parts gain the codec's extension
	// (part-r-00000.gz); SequenceFile parts compress per block.
	OutputCodec string
	// SideFiles are auxiliary data files tasks may open through the task
	// context (the movie-genre and album join files). The framework
	// meters how tasks access them.
	SideFiles []string
	// Config carries free-form job parameters to tasks.
	Config map[string]string
	// Queue names the YARN capacity queue the job is submitted to. Only
	// the YARN-backed distributed runtime reads it; empty means the
	// ResourceManager's default queue (yarn.DefaultQueue).
	Queue string
	// User is the submitting principal, used for capacity-queue user
	// limits in YARN mode (default: the HDFS default user).
	User string
	// SplitSize overrides the standalone-mode input split size.
	SplitSize int64
	// SpillRecords bounds the map-side sort buffer (Hadoop's io.sort.mb,
	// in records): when a task's collected output exceeds it, the buffer
	// is sorted, combined and spilled as a run, and runs are merged (and
	// re-combined) at task end. 0 means unbounded (single spill).
	SpillRecords int
}

// Validate reports configuration errors before any work starts.
func (j *Job) Validate() error {
	switch {
	case j.Name == "":
		return errors.New("mapreduce: job needs a Name")
	case j.NewMapper == nil:
		return errors.New("mapreduce: job needs a NewMapper")
	case j.NewReducer == nil:
		return errors.New("mapreduce: job needs a NewReducer")
	case j.DecodeValue == nil:
		return errors.New("mapreduce: job needs a DecodeValue")
	case len(j.InputPaths) == 0:
		return errors.New("mapreduce: job needs InputPaths")
	case j.OutputPath == "":
		return errors.New("mapreduce: job needs an OutputPath")
	case j.NumReducers < 0:
		return fmt.Errorf("mapreduce: NumReducers=%d is negative", j.NumReducers)
	}
	switch j.OutputFormat {
	case "", OutputFormatText, OutputFormatSeq:
	default:
		return fmt.Errorf("mapreduce: unknown OutputFormat %q", j.OutputFormat)
	}
	if _, err := iofmt.ByName(j.OutputCodec); err != nil {
		return fmt.Errorf("mapreduce: OutputCodec: %w", err)
	}
	return nil
}

// outputFormat returns the effective output format.
func (j *Job) outputFormat() string {
	if j.OutputFormat == "" {
		return OutputFormatText
	}
	return j.OutputFormat
}

// OutputPartName returns the file name reducer r commits under
// OutputPath, including the format and codec suffix readers key off.
func (j *Job) OutputPartName(r int) string {
	name := PartitionName(r)
	if j.outputFormat() == OutputFormatSeq {
		return name + iofmt.SeqExtension
	}
	if c, err := iofmt.ByName(j.OutputCodec); err == nil && c != nil && c.Extension() != "" {
		return name + c.Extension()
	}
	return name
}

// ReadOutput reads back a completed job's part files under outputPath,
// concatenated in name order and each rendered to canonical text whatever
// its format and codec — so one job's output compares byte-identical
// across text, compressed and SequenceFile parts, and across runtimes.
func ReadOutput(fs vfs.FileSystem, outputPath string) (string, error) {
	infos, err := fs.List(outputPath)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	size := int64(0)
	for _, fi := range infos {
		size += fi.Size // directories and _SUCCESS are empty
	}
	b.Grow(int(size))
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

// Reducers returns the effective reducer count.
func (j *Job) Reducers() int {
	if j.NumReducers <= 0 {
		return DefaultNumReducers
	}
	return j.NumReducers
}

// Partitioner returns the effective partition function.
func (j *Job) Partitioner() PartitionFunc {
	if j.Partition == nil {
		return HashPartition
	}
	return j.Partition
}

// EffectiveSplitSize returns the standalone split size.
func (j *Job) EffectiveSplitSize() int64 {
	if j.SplitSize <= 0 {
		return DefaultSplitSize
	}
	return j.SplitSize
}

// TaskContext is the per-task view of the framework: counters, config and
// metered access to side files. One context exists per task attempt.
type TaskContext struct {
	// JobName and TaskID identify the attempt in logs.
	JobName string
	TaskID  string
	// Counters is the attempt's private counter set.
	Counters *Counters
	// Config is the job's Config map (read-only).
	Config map[string]string

	fs        vfs.FileSystem
	sideFiles map[string]bool
	memoryNow int64
}

// NewTaskContext builds a context for one task attempt.
func NewTaskContext(jobName, taskID string, fs vfs.FileSystem, job *Job) *TaskContext {
	side := make(map[string]bool, len(job.SideFiles))
	for _, p := range job.SideFiles {
		side[vfs.Clean(p)] = true
	}
	return &TaskContext{
		JobName:   jobName,
		TaskID:    taskID,
		Counters:  NewCounters(),
		Config:    job.Config,
		fs:        fs,
		sideFiles: side,
	}
}

// ReadSideFile reads a declared side file in full, metering the access.
// Reading it from inside every Map call is the slow anti-pattern the
// assignment demonstrates; reading it once from Setup is the fast one.
func (ctx *TaskContext) ReadSideFile(path string) ([]byte, error) {
	p := vfs.Clean(path)
	if !ctx.sideFiles[p] {
		return nil, fmt.Errorf("mapreduce: %q is not a declared side file", path)
	}
	data, err := vfs.ReadFile(ctx.fs, p)
	if err != nil {
		return nil, err
	}
	ctx.Counters.Inc(CtrSideFileOpens, 1)
	ctx.Counters.Inc(CtrSideFileBytesRead, int64(len(data)))
	return data, nil
}

// ObserveMemory records a change in task-held memory (positive or
// negative) and tracks the peak, so in-mapper combining strategies can be
// compared for footprint.
func (ctx *TaskContext) ObserveMemory(deltaBytes int64) {
	ctx.memoryNow += deltaBytes
	if ctx.memoryNow < 0 {
		ctx.memoryNow = 0
	}
	ctx.Counters.Max(CtrMapperMemoryPeak, ctx.memoryNow)
}
