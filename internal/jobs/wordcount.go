package jobs

import (
	"repro/internal/mapreduce"
)

// tokenMapper emits (word, 1) per whitespace-separated token — the
// standard WordCount mapper from the first lecture. Tokens are sliced out
// of the line directly rather than through strings.Fields, which would
// allocate a token slice per input line on the hottest mapper in the
// suite; the emitted words match Fields' ASCII-space splitting because
// the corpora contain no other whitespace.
type tokenMapper struct{}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

func (tokenMapper) Map(ctx *mapreduce.TaskContext, off int64, line string, out mapreduce.Emitter) error {
	i := 0
	for i < len(line) {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		start := i
		for i < len(line) && !isSpace(line[i]) {
			i++
		}
		if start < i {
			if err := out.Emit(line[start:i], mapreduce.Int64(1)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sumReducer sums Int64 values per key.
type sumReducer struct{}

func (sumReducer) Reduce(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, out mapreduce.Emitter) error {
	var sum int64
	if err := values.Each(func(v mapreduce.Value) error {
		sum += int64(v.(mapreduce.Int64))
		return nil
	}); err != nil {
		return err
	}
	return out.Emit(key, mapreduce.Int64(sum))
}

// WordCount builds the canonical WordCount job. When withCombiner is set,
// the reducer doubles as the combiner ("another WordCount example that
// uses the reducer as a combiner"), trading map-side work for shuffle
// volume — the trade-off the students observed through the job report.
func WordCount(input, output string, withCombiner bool) *mapreduce.Job {
	j := &mapreduce.Job{
		Name:        "wordcount",
		NewMapper:   func() mapreduce.Mapper { return tokenMapper{} },
		NewReducer:  func() mapreduce.Reducer { return sumReducer{} },
		DecodeValue: mapreduce.DecodeInt64,
		InputPaths:  []string{input},
		OutputPath:  output,
	}
	if withCombiner {
		j.Name = "wordcount-combiner"
		j.NewCombiner = func() mapreduce.Reducer { return sumReducer{} }
	}
	return j
}

// TopWord builds the Fall 2012 assignment-1 job: "find the word with the
// highest count in the complete Shakespeare collection". A single reducer
// scans all word totals and emits only the winner.
func TopWord(input, output string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:        "topword",
		NewMapper:   func() mapreduce.Mapper { return tokenMapper{} },
		NewReducer:  func() mapreduce.Reducer { return &maxValueReducer{} },
		NewCombiner: func() mapreduce.Reducer { return sumReducer{} },
		DecodeValue: mapreduce.DecodeInt64,
		NumReducers: 1,
		InputPaths:  []string{input},
		OutputPath:  output,
	}
}
