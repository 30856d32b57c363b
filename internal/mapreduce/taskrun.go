package mapreduce

import (
	"bytes"
	"fmt"
	"slices"
)

// MapOutput is one map task's output: a sorted (and, if configured,
// combined) run of pairs per reduce partition.
type MapOutput struct {
	Partitions [][]Pair
}

// Bytes returns the total encoded size of the output — what the shuffle
// will move for this task.
func (m *MapOutput) Bytes() int64 {
	var n int64
	for _, part := range m.Partitions {
		for _, p := range part {
			n += p.Bytes()
		}
	}
	return n
}

// Records returns the total pair count across partitions.
func (m *MapOutput) Records() int64 {
	var n int64
	for _, part := range m.Partitions {
		n += int64(len(part))
	}
	return n
}

// MapScratch is a map task's collect-and-sort buffer — Hadoop's io.sort.mb,
// allocated once and reused across spills and tasks rather than regrown by
// each. The zero value is ready. A scratch serves one task at a time: each
// runtime that runs tasks concurrently owns one per worker. Nothing a task
// returns points into it, and a task leaves it cleared, so outputs of
// earlier, speculative and re-run attempts stay independent of whatever
// runs on the scratch next.
type MapScratch struct {
	collect [][]Pair // per partition: pairs emitted and not yet spilled
	run     []Pair   // the sorted run a combiner consumes
	sort    sortScratch
}

// ExecuteMap runs one map task on a scratch of its own.
func ExecuteMap(ctx *TaskContext, job *Job, records []Record) (*MapOutput, error) {
	return new(MapScratch).ExecuteMap(ctx, job, records)
}

// ExecuteMap runs one map task over its records: Setup, Map per record,
// Close, then partition, sort and combine — spilling the sort buffer
// whenever it exceeds the job's SpillRecords bound, exactly as a full
// io.sort buffer forces a Hadoop map task to spill mid-run. Both runtimes
// call this; they differ only in how they fetch the records and where the
// output lives.
func (s *MapScratch) ExecuteMap(ctx *TaskContext, job *Job, records []Record) (*MapOutput, error) {
	mapper := job.NewMapper()
	nParts := job.Reducers()
	part := job.Partitioner()

	// spills[p] holds the sorted+combined runs already flushed for
	// partition p; buffer holds unsorted pairs not yet spilled.
	spills := make([][][]Pair, nParts)
	for len(s.collect) < nParts {
		s.collect = append(s.collect, nil)
	}
	buffer := s.collect[:nParts]
	buffered := 0
	defer func() { // a task that failed mid-collect still leaves the scratch clear
		for p, pairs := range buffer {
			clear(pairs)
			buffer[p] = pairs[:0]
		}
	}()

	spill := func() error {
		for p, pairs := range buffer {
			if len(pairs) == 0 {
				continue
			}
			var run []Pair
			if job.NewCombiner == nil {
				// The sorted run is the task's output: sort straight into
				// the slice that will be kept.
				run = make([]Pair, len(pairs))
				sortPairsInto(run, pairs, &s.sort)
			} else {
				s.run = resized(s.run, len(pairs))
				sortPairsInto(s.run, pairs, &s.sort)
				combined, err := RunCombiner(ctx, job, s.run)
				clear(s.run)
				if err != nil {
					return fmt.Errorf("combiner: %w", err)
				}
				run = combined
			}
			spills[p] = append(spills[p], run)
			ctx.Counters.Inc(CtrSpilledRecords, int64(len(run)))
			clear(pairs)
			buffer[p] = pairs[:0]
		}
		buffered = 0
		return nil
	}

	// The per-record counters are accumulated in locals and flushed once:
	// two map-assigns per emitted pair was a measurable slice of the map
	// phase on counting jobs.
	var outRecords, outBytes int64
	emit := EmitterFunc(func(key string, value Value) error {
		p := part(key, nParts)
		if p < 0 || p >= nParts {
			return fmt.Errorf("mapreduce: partitioner returned %d for %d reducers", p, nParts)
		}
		pair := Pair{Key: key, Val: value.EncodeValue()}
		buf := buffer[p]
		if len(buf) == cap(buf) {
			// Double: append's 1.25x steps for large slices would put a
			// cold scratch through ~5x its final size on the way up.
			buf = slices.Grow(buf, max(len(buf), 64))
		}
		buffer[p] = append(buf, pair)
		buffered++
		outRecords++
		outBytes += pair.Bytes()
		if job.SpillRecords > 0 && buffered >= job.SpillRecords {
			return spill()
		}
		return nil
	})

	if s, ok := mapper.(Setupper); ok {
		if err := s.Setup(ctx); err != nil {
			return nil, fmt.Errorf("map setup: %w", err)
		}
	}
	var inRecords, inBytes int64
	for _, rec := range records {
		inRecords++
		inBytes += int64(len(rec.Line)) + 1
		if err := mapper.Map(ctx, rec.Offset, rec.Line, emit); err != nil {
			return nil, fmt.Errorf("map record at offset %d: %w", rec.Offset, err)
		}
	}
	ctx.Counters.Inc(CtrMapInputRecords, inRecords)
	ctx.Counters.Inc(CtrMapInputBytes, inBytes)
	if c, ok := mapper.(Closer); ok {
		if err := c.Close(ctx, emit); err != nil {
			return nil, fmt.Errorf("map close: %w", err)
		}
	}
	ctx.Counters.Inc(CtrMapOutputRecords, outRecords)
	ctx.Counters.Inc(CtrMapOutputBytes, outBytes)
	if err := spill(); err != nil {
		return nil, err
	}

	// Merge the spill runs per partition; a multi-spill merge re-combines
	// so each final partition holds at most one pair per combined key.
	out := &MapOutput{Partitions: make([][]Pair, nParts)}
	for p, runs := range spills {
		switch len(runs) {
		case 0:
			out.Partitions[p] = nil
		case 1:
			out.Partitions[p] = runs[0]
		default:
			merged := MergeSortedRuns(runs)
			combined, err := RunCombiner(ctx, job, merged)
			if err != nil {
				return nil, fmt.Errorf("merge combiner: %w", err)
			}
			out.Partitions[p] = combined
		}
	}
	return out, nil
}

// ReduceScratch is a reduce task's working memory, the reduce-side twin
// of MapScratch: the k-way merge over the runs fetched from each map
// task, the window holding one group's pairs, the one Values every group
// is handed, and the buffer the task's part file is encoded into. The
// zero value is ready. A scratch serves one task at a time. The part
// bytes that Finish returns on its writer belong to the scratch until its
// next task starts, so write them out first (vfs.WriteFile copies them).
type ReduceScratch struct {
	merge  mergeHeap
	window []Pair
	values Values
	part   bytes.Buffer
}

// ExecuteReduce runs one reduce task on a scratch of its own.
func ExecuteReduce(ctx *TaskContext, job *Job, runs [][]Pair, w *OutputWriter) (int64, error) {
	return new(ReduceScratch).ExecuteReduce(ctx, job, runs, w)
}

// ExecuteReduce runs one reduce task: merge the sorted runs fetched from
// each map task, group by key (or GroupKey(key)), apply the reducer (with
// lifecycle hooks), and write each output record to w. The merge streams:
// each group is popped into the window and reduced before the next is
// read, so the merged partition never exists as one slice. Returns the
// text bytes emitted ("key<TAB>value\n" per record); both runtimes discard
// that count, which stays because the frozen bench/ module assigns it.
func (s *ReduceScratch) ExecuteReduce(ctx *TaskContext, job *Job, runs [][]Pair, w *OutputWriter) (int64, error) {
	reducer := job.NewReducer()
	var written, outRecords int64
	emit := EmitterFunc(func(key string, value Value) error {
		outRecords++
		v := value.String()
		written += int64(len(key) + len(v) + 2) // tab + newline
		return w.WriteRecord(key, v)
	})

	if su, ok := reducer.(Setupper); ok {
		if err := su.Setup(ctx); err != nil {
			return written, fmt.Errorf("reduce setup: %w", err)
		}
	}
	s.merge.reset(runs)
	defer func() { // an idle scratch pins no shuffle data; the part holds bytes only
		clear(s.window[:cap(s.window)])
		clear(s.merge.h[:cap(s.merge.h)])
		s.merge.reset(nil)
	}()
	var inGroups, inRecords int64
	var err error
	for len(s.merge.h) > 0 {
		group := s.nextGroup(job.GroupKey)
		inGroups++
		inRecords += int64(len(group))
		s.values = Values{decode: job.DecodeValue, pairs: group}
		if err = reducer.Reduce(ctx, group[0].Key, &s.values, emit); err != nil {
			break
		}
	}
	ctx.Counters.Inc(CtrReduceInputGroups, inGroups)
	ctx.Counters.Inc(CtrReduceInputRecords, inRecords)
	if err != nil {
		return written, fmt.Errorf("reduce: %w", err)
	}
	if c, ok := reducer.(Closer); ok {
		if err := c.Close(ctx, emit); err != nil {
			return written, fmt.Errorf("reduce close: %w", err)
		}
	}
	ctx.Counters.Inc(CtrReduceOutputRecords, outRecords)
	return written, nil
}

// nextGroup pops the next reduce group off the merge into the window: the
// pairs whose key — or groupKey(key), when set — equals that of the
// group's first pair, in merge order. The merge must not be empty.
func (s *ReduceScratch) nextGroup(groupKey func(string) string) []Pair {
	m := &s.merge
	group := append(s.window[:0], m.pop())
	if groupKey == nil {
		for len(m.h) > 0 && m.h[0].key == group[0].Key {
			group = append(group, m.pop())
		}
	} else {
		g := groupKey(group[0].Key)
		for len(m.h) > 0 && groupKey(m.h[0].key) == g {
			group = append(group, m.pop())
		}
	}
	s.window = group
	return group
}

// PartitionName returns the conventional output file name for reducer r.
func PartitionName(r int) string {
	return fmt.Sprintf("part-r-%05d", r)
}
