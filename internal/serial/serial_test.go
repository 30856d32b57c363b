package serial

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

func wordCountJob(in, out string) *mapreduce.Job {
	return &mapreduce.Job{
		Name: "wordcount",
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, off int64, line string, emit mapreduce.Emitter) error {
				for _, w := range strings.Fields(line) {
					if err := emit.Emit(w, mapreduce.Int64(1)); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key string, values *mapreduce.Values, emit mapreduce.Emitter) error {
				var sum int64
				if err := values.Each(func(v mapreduce.Value) error {
					sum += int64(v.(mapreduce.Int64))
					return nil
				}); err != nil {
					return err
				}
				return emit.Emit(key, mapreduce.Int64(sum))
			})
		},
		DecodeValue: mapreduce.DecodeInt64,
		InputPaths:  []string{in},
		OutputPath:  out,
	}
}

func outputCounts(t *testing.T, fs vfs.FileSystem, out string) map[string]int {
	t.Helper()
	text, err := mapreduce.ReadOutput(fs, out)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		var w string
		var n int
		if _, err := fmt.Sscanf(line, "%s\t%d", &w, &n); err != nil {
			t.Fatalf("bad output line %q: %v", line, err)
		}
		counts[w] = n
	}
	return counts
}

func TestWordCountEndToEnd(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f1.txt", []byte("to be or not to be\n")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/in/f2.txt", []byte("to be is to do\n")); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	job := wordCountJob("/in", "/out")
	ctrs, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	counts := outputCounts(t, fs, "/out")
	want := map[string]int{"to": 4, "be": 3, "or": 1, "not": 1, "is": 1, "do": 1}
	for w, n := range want {
		if counts[w] != n {
			t.Fatalf("count[%s] = %d, want %d (all: %v)", w, counts[w], n, counts)
		}
	}
	if !vfs.Exists(fs, "/out/_SUCCESS") {
		t.Fatal("_SUCCESS marker missing")
	}
	if ctrs.Get(mapreduce.CtrMapInputRecords) != 2 {
		t.Fatalf("map input records = %d", ctrs.Get(mapreduce.CtrMapInputRecords))
	}
}

func TestOutputExistsRefused(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/out"); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	_, err := r.Run(wordCountJob("/in", "/out"))
	if !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("want ErrExist for existing output dir, got %v", err)
	}
}

func TestEmptyInputFails(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/empty.txt", nil); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	if _, err := r.Run(wordCountJob("/in", "/out")); err == nil {
		t.Fatal("job with no data succeeded")
	}
}

func TestMissingInputFails(t *testing.T) {
	fs := vfs.NewMemFS()
	r := &Runner{FS: fs}
	if _, err := r.Run(wordCountJob("/nope", "/out")); err == nil {
		t.Fatal("job with missing input succeeded")
	}
}

// TestFailedWriteLeavesNoSuccessMarker fails each mutating storage call
// of a two-reducer job in turn: Run must return the injected error, and
// _SUCCESS must exist exactly when Run returned nil.
func TestFailedWriteLeavesNoSuccessMarker(t *testing.T) {
	run := func(failAt int) (*vfstest.FailFS, error) {
		mem := vfs.NewMemFS()
		if err := vfs.WriteFile(mem, "/in/a.txt", []byte("the cat\nthe dog\na cat\n")); err != nil {
			t.Fatal(err)
		}
		ffs := &vfstest.FailFS{FileSystem: mem, FailAt: failAt}
		job := wordCountJob("/in", "/out")
		job.NumReducers = 2
		_, err := (&Runner{FS: ffs}).Run(job)
		return ffs, err
	}
	dry, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= dry.Calls; k++ {
		ffs, err := run(k)
		if !errors.Is(err, vfstest.ErrInjected) {
			t.Errorf("call %d (%s) failed; Run returned %v, want the injected error", k, ffs.Failed, err)
		}
		if done := vfs.Exists(ffs, "/out/_SUCCESS"); done != (err == nil) {
			t.Errorf("call %d (%s) failed; Run returned %v and _SUCCESS exists: %t", k, ffs.Failed, err, done)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// Determinism property: output bytes are identical for any mapper
	// parallelism, because partitions are merged in split order.
	mkfs := func() vfs.FileSystem {
		fs := vfs.NewMemFS()
		var b strings.Builder
		for i := 0; i < 500; i++ {
			fmt.Fprintf(&b, "word%d alpha beta gamma word%d\n", i%17, i%5)
		}
		if err := vfs.WriteFile(fs, "/in/data.txt", []byte(b.String())); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	var outputs []string
	for _, par := range []int{1, 4, 16} {
		fs := mkfs()
		job := wordCountJob("/in", "/out")
		job.SplitSize = 256 // force many splits
		job.NumReducers = 3
		r := &Runner{FS: fs, Parallelism: par}
		if _, err := r.Run(job); err != nil {
			t.Fatal(err)
		}
		text, err := mapreduce.ReadOutput(fs, "/out")
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, text)
	}
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Fatal("output differs across parallelism levels")
	}
}

// openCountingFS counts Open calls per path.
type openCountingFS struct {
	vfs.FileSystem
	mu    sync.Mutex
	opens map[string]int
}

func (c *openCountingFS) Open(path string) (io.ReadCloser, error) {
	c.mu.Lock()
	c.opens[vfs.Clean(path)]++
	c.mu.Unlock()
	return c.FileSystem.Open(path)
}

// TestEachInputFileReadOncePerJob pins the runner's I/O shape: a file cut
// into many splits is still opened once, not once per split, whether the
// mappers run one at a time or four at once.
func TestEachInputFileReadOncePerJob(t *testing.T) {
	for _, par := range []int{1, 4} {
		fs := &openCountingFS{FileSystem: vfs.NewMemFS(), opens: map[string]int{}}
		for _, name := range []string{"/in/a.txt", "/in/b.txt"} {
			if err := vfs.WriteFile(fs, name, []byte(strings.Repeat("alpha beta gamma\n", 200))); err != nil {
				t.Fatal(err)
			}
		}
		job := wordCountJob("/in", "/out")
		job.SplitSize = 256
		ctrs, err := (&Runner{FS: fs, Parallelism: par}).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		maps := ctrs.Get(mapreduce.CtrLaunchedMaps)
		if maps < 20 {
			t.Fatalf("only %d splits; the test needs many per file", maps)
		}
		for _, name := range []string{"/in/a.txt", "/in/b.txt"} {
			if got := fs.opens[name]; got != 1 {
				t.Errorf("parallelism %d: %s opened %d times for %d splits, want once", par, name, got, maps)
			}
		}
	}
}

func TestMultipleReducersPartitionDisjointly(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("a b c d e f g h\n")); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob("/in", "/out")
	job.NumReducers = 4
	r := &Runner{FS: fs}
	ctrs, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctrs.Get(mapreduce.CtrLaunchedReduces); got != 4 {
		t.Fatalf("reduce tasks = %d", got)
	}
	infos, err := fs.List("/out")
	if err != nil {
		t.Fatal(err)
	}
	parts := 0
	seen := map[string]bool{}
	for _, fi := range infos {
		if fi.Name() == "_SUCCESS" {
			continue
		}
		parts++
		data, _ := vfs.ReadFile(fs, fi.Path)
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" {
				continue
			}
			key := strings.SplitN(line, "\t", 2)[0]
			if seen[key] {
				t.Fatalf("key %q appears in multiple partitions", key)
			}
			seen[key] = true
		}
	}
	if parts != 4 {
		t.Fatalf("part files = %d, want 4", parts)
	}
	if len(seen) != 8 {
		t.Fatalf("distinct keys = %d, want 8", len(seen))
	}
}

func TestCombinerCountersVisible(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("x x x x y y\n")); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob("/in", "/out")
	job.NewCombiner = job.NewReducer
	r := &Runner{FS: fs}
	ctrs, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if ctrs.Get(mapreduce.CtrCombineInputRecords) != 6 {
		t.Fatalf("combine in = %d", ctrs.Get(mapreduce.CtrCombineInputRecords))
	}
	if ctrs.Get(mapreduce.CtrCombineOutputRecords) != 2 {
		t.Fatalf("combine out = %d", ctrs.Get(mapreduce.CtrCombineOutputRecords))
	}
	counts := outputCounts(t, fs, "/out")
	if counts["x"] != 4 || counts["y"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestRunOnOsFS(t *testing.T) {
	fs, err := vfs.NewOsFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("disk disk mem\n")); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	if _, err := r.Run(wordCountJob("/in", "/out")); err != nil {
		t.Fatal(err)
	}
	counts := outputCounts(t, fs, "/out")
	if counts["disk"] != 2 || counts["mem"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestReportString checks the summary a standalone run reports: the
// counters Run returns render the input records and the launched task
// counts. The job-name header is printed by mrrun and checked in
// cli_test.go.
func TestReportString(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("a\n")); err != nil {
		t.Fatal(err)
	}
	r := &Runner{FS: fs}
	ctrs, err := r.Run(wordCountJob("/in", "/out"))
	if err != nil {
		t.Fatal(err)
	}
	s := ctrs.String()
	for _, want := range []string{"MAP_INPUT_RECORDS=1\n", "TOTAL_LAUNCHED_MAPS=1\n", "TOTAL_LAUNCHED_REDUCES=1\n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}
