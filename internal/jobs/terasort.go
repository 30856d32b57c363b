package jobs

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/mapreduce"
	"repro/internal/vfs"
)

// TeraSort: the classic Hadoop total-order sort benchmark. A sampled
// range partitioner (Hadoop's TotalOrderPartitioner) routes key ranges to
// reducers so that the concatenation of part-r-00000..N is globally
// sorted — the canonical exercise of the Partitioner API beyond hashing.

// teraMapper splits "key<TAB>payload" lines. It emits one reused Text,
// Hadoop-style, so a record costs no interface box.
type teraMapper struct{ val mapreduce.Text }

func (m *teraMapper) Map(ctx *mapreduce.TaskContext, off int64, line string, out mapreduce.Emitter) error {
	key, payload, ok := strings.Cut(line, "\t")
	if !ok {
		return nil
	}
	m.val = mapreduce.Text(payload)
	return out.Emit(key, &m.val)
}

// teraReducer is the identity: emit every record under its key. Values
// for equal keys arrive in deterministic (map-task) order. Like Hadoop's
// identity reduce it never deserialises a value: it passes each value's
// shuffled bytes on through one reused Bytes.
type teraReducer struct{ val mapreduce.Bytes }

func (r *teraReducer) Reduce(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, out mapreduce.Emitter) error {
	for b, ok := values.NextBytes(); ok; b, ok = values.NextBytes() {
		r.val = b
		if err := out.Emit(key, &r.val); err != nil {
			return err
		}
	}
	return nil
}

// SampleSplitPoints reads up to maxSamples keys from the input and
// returns reducers-1 quantile split points — the job-client sampling pass
// Hadoop's TeraSort runs before submission.
func SampleSplitPoints(fs vfs.FileSystem, input string, reducers, maxSamples int) ([]string, error) {
	if reducers < 2 {
		return nil, nil
	}
	if maxSamples <= 0 {
		maxSamples = 10000
	}
	var keys []string
	err := vfs.Walk(fs, input, func(fi vfs.FileInfo) error {
		if len(keys) >= maxSamples {
			return nil
		}
		// The whole file is read even when few keys are wanted from it:
		// the read is what the sim meters and audits.
		data, err := vfs.ReadView(fs, fi.Path)
		if err != nil {
			return err
		}
		for len(data) > 0 && len(keys) < maxSamples {
			line := data
			if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
				line, data = data[:nl], data[nl+1:]
			} else {
				data = nil
			}
			if key, _, ok := bytes.Cut(line, []byte{'\t'}); ok {
				keys = append(keys, string(key))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("jobs: no keys to sample under %s", input)
	}
	sort.Strings(keys)
	splits := make([]string, 0, reducers-1)
	for i := 1; i < reducers; i++ {
		splits = append(splits, keys[i*len(keys)/reducers])
	}
	return splits, nil
}

// RangePartition builds a PartitionFunc over sorted split points: keys
// below splits[0] go to reducer 0, and so on.
func RangePartition(splits []string) mapreduce.PartitionFunc {
	return func(key string, n int) int {
		p := sort.SearchStrings(splits, key)
		// SearchStrings puts key == split into the left bucket's boundary;
		// either side is correct as long as it is consistent.
		if p >= n {
			p = n - 1
		}
		return p
	}
}

// TeraSort builds the total-order sort job. It samples the input through
// fs at build time to derive the reducer split points.
func TeraSort(fs vfs.FileSystem, input, output string, reducers int) (*mapreduce.Job, error) {
	if reducers < 1 {
		reducers = 1
	}
	splits, err := SampleSplitPoints(fs, input, reducers, 10000)
	if err != nil {
		return nil, err
	}
	return &mapreduce.Job{
		Name:        "terasort",
		NewMapper:   func() mapreduce.Mapper { return new(teraMapper) },
		NewReducer:  func() mapreduce.Reducer { return new(teraReducer) },
		DecodeValue: mapreduce.DecodeText,
		NumReducers: reducers,
		Partition:   RangePartition(splits),
		InputPaths:  []string{input},
		OutputPath:  output,
	}, nil
}

// ValidateSorted checks TeraSort output (already concatenated in part
// order): every line's key must be >= its predecessor's. Returns the
// line count.
func ValidateSorted(output string) (int, error) {
	prev := ""
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(output), "\n") {
		if line == "" {
			continue
		}
		key, _, ok := strings.Cut(line, "\t")
		if !ok {
			return n, fmt.Errorf("jobs: malformed output line %q", line)
		}
		if key < prev {
			return n, fmt.Errorf("jobs: order violation at line %d: %q < %q", n, key, prev)
		}
		prev = key
		n++
	}
	return n, nil
}
