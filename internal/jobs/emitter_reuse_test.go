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

// textEmitter emits Text values: a fresh Text per call, or with reuse one
// Text field, overwritten as soon as Emit returns — Hadoop's object reuse,
// which is sound only because every Emitter has encoded the value by then.
type textEmitter struct {
	reuse bool
	val   mapreduce.Text
}

func (e *textEmitter) emit(out mapreduce.Emitter, key, val string) error {
	if !e.reuse {
		return out.Emit(key, mapreduce.Text(val))
	}
	e.val = mapreduce.Text(val)
	err := out.Emit(key, &e.val)
	e.val = "overwritten after Emit"
	return err
}

// successorJob maps each word to the word after it on its line ("$" at
// the end) and reduces, and combines, each word's successors to the
// smallest and the largest. Each of its mapper, combiner and reducer
// reuses its value object when asked.
func successorJob(reuseMap, reuseCombine, reuseReduce bool) *mapreduce.Job {
	minMax := func(reuse bool) func() mapreduce.Reducer {
		return func() mapreduce.Reducer {
			e := &textEmitter{reuse: reuse}
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
			e := &textEmitter{reuse: reuseMap}
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
// to their fresh-value twins, standalone and on a MiniCluster.
func TestReusedValuesMatchFreshOnBothRuntimes(t *testing.T) {
	var want string
	for mask := 0; mask < 8; mask++ {
		reuseMap, reuseCombine, reuseReduce := mask&1 != 0, mask&2 != 0, mask&4 != 0
		name := fmt.Sprintf("reuse map=%v combine=%v reduce=%v", reuseMap, reuseCombine, reuseReduce)

		local := vfs.NewMemFS()
		if _, _, err := datagen.Text(local, "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 77}); err != nil {
			t.Fatal(err)
		}
		if _, err := (&serial.Runner{FS: local, Parallelism: 3}).Run(successorJob(reuseMap, reuseCombine, reuseReduce)); err != nil {
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
		rep, err := c.Run(successorJob(reuseMap, reuseCombine, reuseReduce))
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
