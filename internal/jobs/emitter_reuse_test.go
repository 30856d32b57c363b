package jobs_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/serial"
	"repro/internal/vfs"
)

// valueEmitter emits Text values, or Bytes ones when raw is set: a fresh
// value per call, or with reuse one value field (for Bytes, one buffer),
// overwritten as soon as Emit returns — Hadoop's object reuse, which is
// sound only because every Emitter has encoded the value by then.
type valueEmitter struct {
	raw, reuse bool
	val        mapreduce.Text
	buf        mapreduce.Bytes
}

func (e *valueEmitter) emit(out mapreduce.Emitter, key, val string) error {
	switch {
	case !e.reuse && e.raw:
		return out.Emit(key, mapreduce.Bytes(val))
	case !e.reuse:
		return out.Emit(key, mapreduce.Text(val))
	case e.raw:
		e.buf = append(e.buf[:0], val...)
		err := out.Emit(key, &e.buf)
		for i := range e.buf {
			e.buf[i] = '#'
		}
		return err
	}
	e.val = mapreduce.Text(val)
	err := out.Emit(key, &e.val)
	e.val = "overwritten after Emit"
	return err
}

// successorJob maps each word to the word after it on its line ("$" at
// the end) and reduces, and combines, each word's successors to the
// smallest and the largest. Its mapper, combiner and reducer emit Bytes
// values when raw is set, Text ones otherwise, and each reuses its value
// object when asked.
func successorJob(raw, reuseMap, reuseCombine, reuseReduce bool) *mapreduce.Job {
	minMax := func(reuse bool) func() mapreduce.Reducer {
		return func() mapreduce.Reducer {
			e := &valueEmitter{raw: raw, reuse: reuse}
			return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, out mapreduce.Emitter) error {
				var lo, hi string
				for i := 0; ; i++ {
					v, ok, err := values.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					if s := v.String(); i == 0 {
						lo, hi = s, s
					} else {
						lo, hi = min(lo, s), max(hi, s)
					}
				}
				if err := e.emit(out, key, lo); err != nil {
					return err
				}
				return e.emit(out, key, hi)
			})
		}
	}
	return &mapreduce.Job{
		Name: "successor",
		NewMapper: func() mapreduce.Mapper {
			e := &valueEmitter{raw: raw, reuse: reuseMap}
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, off int64, line string, out mapreduce.Emitter) error {
				words := strings.Fields(line)
				for i, w := range words {
					next := "$"
					if i+1 < len(words) {
						next = words[i+1]
					}
					if err := e.emit(out, w, next); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewCombiner: minMax(reuseCombine),
		NewReducer:  minMax(reuseReduce),
		DecodeValue: mapreduce.DecodeText,
		NumReducers: 3,
		InputPaths:  []string{"/in"},
		OutputPath:  "/out",
	}
}

// TestReusedValuesMatchFreshOnBothRuntimes pins the Emitter contract on
// all three emitters: a mapper, a combiner and a reducer that each reuse
// one value object, mutated after every Emit, write byte-identical output
// to their fresh-value twins, standalone and on a MiniCluster. Bytes
// values, whose reused buffer is overwritten in place, must write what
// Text values write.
func TestReusedValuesMatchFreshOnBothRuntimes(t *testing.T) {
	var want string
	for mask := 0; mask < 16; mask++ {
		raw, reuseMap, reuseCombine, reuseReduce := mask&8 != 0, mask&1 != 0, mask&2 != 0, mask&4 != 0
		name := fmt.Sprintf("raw=%v reuse map=%v combine=%v reduce=%v", raw, reuseMap, reuseCombine, reuseReduce)

		local := vfs.NewMemFS()
		if _, _, err := datagen.Text(local, "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 77}); err != nil {
			t.Fatal(err)
		}
		if _, err := (&serial.Runner{FS: local, Parallelism: 3}).Run(successorJob(raw, reuseMap, reuseCombine, reuseReduce)); err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		serialOut, err := mapreduce.ReadOutput(local, "/out")
		if err != nil {
			t.Fatal(err)
		}

		// Small blocks: several map tasks, so the reducers merge runs.
		c, err := core.New(core.Options{Nodes: 6, Seed: 5, HDFS: hdfs.Config{BlockSize: 4 << 10}})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 77}); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(successorJob(raw, reuseMap, reuseCombine, reuseReduce))
		if err != nil {
			t.Fatalf("%s: cluster: %v", name, err)
		}
		if rep.Failed || rep.MapTasks < 2 {
			t.Fatalf("%s: cluster job failed (%v) or ran %d map tasks", name, rep.Err, rep.MapTasks)
		}
		clusterOut, err := c.Output("/out")
		if err != nil {
			t.Fatal(err)
		}

		if mask == 0 {
			want = serialOut
			if strings.Count(want, "\n") < 100 || strings.Contains(want, "overwritten") {
				t.Fatalf("fresh-value output is not what the job computes: %.200s", want)
			}
		}
		if serialOut != want {
			t.Errorf("%s: serial output differs from the fresh-value run", name)
		}
		if clusterOut != want {
			t.Errorf("%s: cluster output differs from the fresh-value run", name)
		}
	}
}
