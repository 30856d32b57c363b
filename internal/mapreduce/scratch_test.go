package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// The map-side scratch is reused from task to task, so the one new way to
// be wrong is aliasing: a retained MapOutput that still points into memory
// the next task overwrites. These tests pin that down from three sides —
// whole tasks, the sort alone, and the allocation budget that makes the
// reuse worth having.

// fieldsMapper emits (word, 1) per space-separated word without allocating:
// keys are substrings of the line.
func fieldsMapper(ctx *TaskContext, off int64, line string, out Emitter) error {
	for len(line) > 0 {
		var w string
		w, line, _ = strings.Cut(line, " ")
		if w == "" {
			continue
		}
		if err := out.Emit(w, Int64(1)); err != nil {
			return err
		}
	}
	return nil
}

// textMapper emits, per space-separated word, the word and the rest of its
// line as a Text value. With reuse set it is Hadoop-style: it sets its one
// Text field, emits a pointer to it and overwrites it straight after Emit
// returns; otherwise every emit boxes a fresh Text.
type textMapper struct {
	reuse bool
	val   Text
}

func (m *textMapper) Map(ctx *TaskContext, off int64, line string, out Emitter) error {
	for len(line) > 0 {
		var w string
		w, line, _ = strings.Cut(line, " ")
		if w == "" {
			continue
		}
		var err error
		if m.reuse {
			m.val = Text(line)
			err = out.Emit(w, &m.val)
			m.val = "overwritten after Emit"
		} else {
			err = out.Emit(w, Text(line))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// minTextReducer keeps the smallest Text value of each group: a combiner
// for textMapper's output.
func minTextReducer(ctx *TaskContext, key string, values *Values, out Emitter) error {
	var least Text
	for i := 0; ; i++ {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			return out.Emit(key, least)
		}
		if t := v.(Text); i == 0 || t < least {
			least = t
		}
	}
}

// randomRecords builds one task's input: nLines lines of eight words drawn
// from a vocabulary of vocab words (small vocab = duplicate-heavy output).
func randomRecords(rng *rand.Rand, nLines, vocab int) []Record {
	recs := make([]Record, nLines)
	var off int64
	for i := range recs {
		words := make([]string, 8)
		for j := range words {
			words[j] = fmt.Sprintf("w%06d", rng.Intn(vocab))
		}
		recs[i] = Record{Offset: off, Line: strings.Join(words, " ")}
		off += int64(len(recs[i].Line)) + 1
	}
	return recs
}

func cloneOutput(out *MapOutput) *MapOutput {
	c := &MapOutput{Partitions: make([][]Pair, len(out.Partitions))}
	for p, part := range out.Partitions {
		if part == nil {
			continue
		}
		c.Partitions[p] = make([]Pair, len(part))
		for i, kv := range part {
			c.Partitions[p][i] = Pair{Key: strings.Clone(kv.Key), Val: bytes.Clone(kv.Val)}
		}
	}
	return c
}

func TestSharedScratchMatchesFreshAndNeverAliasesOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fs := vfs.NewMemFS()
	errBoom := errors.New("boom")

	var shared MapScratch // one scratch for the whole sequence, across jobs
	type kept struct {
		name     string
		out      *MapOutput // what the shared-scratch task returned
		snapshot *MapOutput // a deep copy taken at the time
	}
	var history []kept

	// The value kinds: interned Int64 encodings, and Text values copied
	// into the task's slab from a fresh Text per emit or from one reused
	// Text that the mapper overwrites after every Emit.
	values := []struct {
		name      string
		newMapper func() Mapper
	}{
		{"int64", func() Mapper { return MapperFunc(fieldsMapper) }},
		{"text-fresh", func() Mapper { return &textMapper{} }},
		{"text-reused", func() Mapper { return &textMapper{reuse: true} }},
	}
	for _, combiner := range []bool{false, true} {
		for _, reducers := range []int{1, 3, 8} {
			for _, spill := range []int{0, 7, 1000} {
				for _, vocab := range []int{12, 1 << 30} { // duplicate-heavy, (nearly) all distinct
					for _, val := range values {
						job := wordCountJob()
						job.NewMapper = val.newMapper
						if val.name != "int64" {
							job.DecodeValue = DecodeText
							job.NewReducer = func() Reducer { return ReducerFunc(minTextReducer) }
						}
						if combiner {
							job.NewCombiner = job.NewReducer
						}
						job.NumReducers = reducers
						job.SpillRecords = spill
						// Task sizes go up and down so the scratch is both
						// regrown and reused with stale capacity to spare; the
						// larger ones cross dupSampleMinLen per partition.
						for task, nLines := range []int{rng.Intn(40), 300 + rng.Intn(900), rng.Intn(200), 150} {
							name := fmt.Sprintf("combiner=%v reducers=%d spill=%d vocab=%d values=%s task=%d", combiner, reducers, spill, vocab, val.name, task)
							recs := randomRecords(rng, nLines, vocab)

							freshCtx := NewTaskContext("p", "fresh", fs, job)
							fresh, err := new(MapScratch).ExecuteMap(freshCtx, job, recs)
							if err != nil {
								t.Fatalf("%s: fresh: %v", name, err)
							}
							sharedCtx := NewTaskContext("p", "shared", fs, job)
							got, err := shared.ExecuteMap(sharedCtx, job, recs)
							if err != nil {
								t.Fatalf("%s: shared: %v", name, err)
							}
							if !reflect.DeepEqual(got, fresh) {
								t.Fatalf("%s: output on the shared scratch differs from a fresh one", name)
							}
							if !reflect.DeepEqual(sharedCtx.Counters.Snapshot(), freshCtx.Counters.Snapshot()) {
								t.Fatalf("%s: counters differ:\nshared %v\nfresh  %v", name, sharedCtx.Counters.Snapshot(), freshCtx.Counters.Snapshot())
							}
							history = append(history, kept{name, got, cloneOutput(got)})
						}

						// A task that dies mid-collect must not leave its pairs
						// behind for the next one.
						failing := *job
						failing.NewMapper = func() Mapper {
							n, m := 0, val.newMapper()
							return MapperFunc(func(ctx *TaskContext, off int64, line string, out Emitter) error {
								if n++; n > 20 {
									return errBoom
								}
								return m.Map(ctx, off, line, out)
							})
						}
						_, err := shared.ExecuteMap(NewTaskContext("p", "failing", fs, &failing), &failing, randomRecords(rng, 50, vocab))
						if !errors.Is(err, errBoom) {
							t.Fatalf("failing task: err = %v", err)
						}
					}
				}
			}
		}
	}

	for _, k := range history {
		if !reflect.DeepEqual(k.out, k.snapshot) {
			t.Errorf("%s: retained output changed after later tasks ran on the same scratch", k.name)
		}
	}
	for p, buf := range shared.collect {
		if len(buf) != 0 {
			t.Errorf("collect[%d] left with %d pairs", p, len(buf))
		}
		assertZeroed(t, fmt.Sprintf("collect[%d]", p), buf[:cap(buf)])
	}
	assertZeroed(t, "run", shared.run[:cap(shared.run)])
	assertSortScratchClear(t, &shared.sort)
}

// Every window slabAppend returns keeps its bytes while later values are
// appended, whether they share its chunk, start the next one or are larger
// than a chunk, and appending to a window never writes into its neighbour.
func TestSlabAppendKeepsEveryWindow(t *testing.T) {
	sizes := []int{0, 5, slabChunk - 6, 1, 10, slabChunk + 100, 7, slabChunk, 3}
	var slab []byte
	vals := make([]string, len(sizes))
	wins := make([][]byte, len(sizes))
	for i, n := range sizes {
		vals[i] = strings.Repeat(string(rune('a'+i)), n)
		wins[i], slab = slabAppend(slab, vals[i])
		if len(wins[i]) != n || cap(wins[i]) != n {
			t.Fatalf("value %d: window len %d cap %d, want both %d", i, len(wins[i]), cap(wins[i]), n)
		}
	}
	for _, w := range wins {
		_ = append(w, '!')
	}
	for i, w := range wins {
		if string(w) != vals[i] {
			t.Errorf("value %d (%d bytes) changed after later values and appends", i, sizes[i])
		}
	}
}

func assertZeroed[T any](t *testing.T, what string, s []T) {
	t.Helper()
	var zero T
	for i := range s {
		if !reflect.DeepEqual(s[i], zero) {
			t.Errorf("%s[%d] = %v: the idle scratch still pins a pair", what, i, s[i])
			return
		}
	}
}

func assertSortScratchClear(t *testing.T, s *sortScratch) {
	t.Helper()
	assertZeroed(t, "idx", s.idx[:cap(s.idx)])
	assertZeroed(t, "groups", s.groups[:cap(s.groups)])
	if len(s.gidOf) != 0 {
		t.Errorf("gidOf left with %d keys", len(s.gidOf))
	}
}

// stableSortedCopy is the specification SortPairs has always had: a stable
// sort by key.
func stableSortedCopy(pairs []Pair) []Pair {
	out := append([]Pair(nil), pairs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// samePairs is DeepEqual without its nil-versus-empty distinction.
func samePairs(a, b []Pair) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestSortPairsIntoMatchesStableSortOnBothStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s sortScratch // shared by every case: stale capacity must not leak in
	sizes := []int{0, 1, 2, 63, dupSampleMinLen - 1, dupSampleMinLen, dupSampleMinLen + 1, 5000, 700}
	for _, n := range sizes {
		for _, vocab := range []int{3, 40, n/2 + 1, 1 << 30} {
			src := make([]Pair, n)
			for i := range src {
				// The value is the emission index, so equal keys out of
				// emission order fail the comparison.
				src[i] = Pair{Key: fmt.Sprintf("k%09d", rng.Intn(vocab)), Val: binary.BigEndian.AppendUint32(nil, uint32(i))}
			}
			orig := append([]Pair(nil), src...)
			want := stableSortedCopy(src)
			name := fmt.Sprintf("n=%d vocab=%d", n, vocab)

			dst := make([]Pair, n)
			sortPairsInto(dst, src, &s)
			if !samePairs(dst, want) {
				t.Fatalf("%s: sortPairsInto differs from a stable sort", name)
			}
			if !samePairs(src, orig) {
				t.Fatalf("%s: sortPairsInto modified its source", name)
			}
			assertSortScratchClear(t, &s)

			// The sample picks a strategy by input; force the grouped one on
			// every input too, since it must be correct wherever it is used.
			clear(dst)
			s.groupSortInto(dst, src)
			if !samePairs(dst, want) {
				t.Fatalf("%s: groupSortInto differs from a stable sort", name)
			}
			assertSortScratchClear(t, &s)

			SortPairs(src)
			if !samePairs(src, want) {
				t.Fatalf("%s: SortPairs differs from a stable sort", name)
			}
		}
	}
	// The sample really tells the two kinds of input apart, so both
	// strategies were taken through sortPairsInto above.
	dup := make([]Pair, dupSampleMinLen)
	for i := range dup {
		dup[i].Key = fmt.Sprint(i % 3)
	}
	if !s.looksDuplicateHeavy(dup) {
		t.Error("a 3-key input does not look duplicate-heavy")
	}
	for i := range dup {
		dup[i].Key = fmt.Sprint(i)
	}
	if s.looksDuplicateHeavy(dup) {
		t.Error("an all-distinct input looks duplicate-heavy")
	}
}

func TestRunCombinerSortsWhenTheCombinerRewritesKeys(t *testing.T) {
	job := wordCountJob()
	// Reverses each key: group order "ab" < "ba" becomes "ba" > "ab".
	job.NewCombiner = func() Reducer {
		return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
			return out.Emit(key[1:]+key[:1], Int64(int64(values.Len())))
		})
	}
	ctx := NewTaskContext("j", "m0", vfs.NewMemFS(), job)
	one := Int64(1).EncodeValue()
	got, err := RunCombiner(ctx, job, []Pair{{"ab", one}, {"ab", one}, {"ba", one}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Pair{{"ab", Int64(1).EncodeValue()}, {"ba", Int64(2).EncodeValue()}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// allocatedBy returns the bytes fn allocates (TotalAlloc growth).
func allocatedBy(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// On a warm scratch a map task allocates its output and little else. The
// budgets are far below what per-task regrowth costs (≈ 5x the collect
// buffer, 20 MB here), so that cannot creep back unnoticed.
func TestWarmScratchAllocationBudget(t *testing.T) {
	const nPairs = 100_000
	rng := rand.New(rand.NewSource(1))
	recs := randomRecords(rng, nPairs/8, 1000)
	fs := vfs.NewMemFS()

	for _, combiner := range []bool{true, false} {
		job := wordCountJob()
		job.NewMapper = func() Mapper { return MapperFunc(fieldsMapper) }
		job.NumReducers = 3
		if combiner {
			job.NewCombiner = job.NewReducer
		}
		var s MapScratch
		run := func() *MapOutput {
			out, err := s.ExecuteMap(NewTaskContext("j", "m0", fs, job), job, recs)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		run() // warm up
		var out *MapOutput
		got := allocatedBy(func() { out = run() })
		budget := uint64(1 << 20)
		if !combiner {
			if out.Records() != nPairs {
				t.Fatalf("task emitted %d pairs, want %d", out.Records(), nPairs)
			}
			pairSize := uint64(reflect.TypeOf(Pair{}).Size())
			budget = nPairs * pairSize * 11 / 10
		}
		if got > budget {
			t.Errorf("combiner=%v: warm task allocated %d bytes, budget %d", combiner, got, budget)
		}
	}

	// TeraSort's map reuses one Text and the emitter copies each value
	// into the task's slab: the task allocates per slab chunk and output
	// slice, not per record.
	job := teraMapJob()
	recs = teraRecords(rng, nPairs)
	var s MapScratch
	var out *MapOutput
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if out, err = s.ExecuteMap(NewTaskContext("j", "m0", fs, job), job, recs); err != nil {
			t.Fatal(err)
		}
	})
	if out.Records() != nPairs {
		t.Fatalf("terasort task emitted %d pairs, want %d", out.Records(), nPairs)
	}
	t.Logf("warm terasort task: %.0f allocations", allocs)
	if budget := float64(nPairs/64 + 64); allocs > budget {
		t.Errorf("warm terasort task made %.0f allocations, budget %.0f", allocs, budget)
	}
}

// teraMapper is TeraSort's map function: it splits "key<TAB>payload"
// lines and emits the payload through one reused Text.
type teraMapper struct{ val Text }

func (m *teraMapper) Map(ctx *TaskContext, off int64, line string, out Emitter) error {
	key, payload, ok := strings.Cut(line, "\t")
	if !ok {
		return nil
	}
	m.val = Text(payload)
	return out.Emit(key, &m.val)
}

// teraMapJob is TeraSort's map side over three reducers.
func teraMapJob() *Job {
	job := identityJob()
	job.NewMapper = func() Mapper { return new(teraMapper) }
	job.NumReducers = 3
	return job
}

// teraRecords builds n TeraSort input lines, teraRuns' pairs in the order
// they were drawn, each written as "key<TAB>value".
func teraRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	var off int64
	for i, run := range teraRuns(rng, n, n) { // one pair per run
		recs[i] = Record{Offset: off, Line: run[0].Key + "\t" + string(run[0].Val)}
		off += int64(len(recs[i].Line)) + 1
	}
	return recs
}

// identityJob is TeraSort's reduce side: Text values, each written out
// under its key.
func identityJob() *Job {
	return &Job{
		Name: "identity",
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
				for {
					v, ok, err := values.Next()
					if !ok || err != nil {
						return err
					}
					if err := out.Emit(key, v); err != nil {
						return err
					}
				}
			})
		},
		DecodeValue: DecodeText,
		OutputPath:  "/out",
	}
}

// rawIdentityJob is identityJob with TeraSort's pass-through reduce: it
// emits each value's shuffled bytes through one reused Bytes and decodes
// none.
func rawIdentityJob() *Job {
	job := identityJob()
	job.NewReducer = func() Reducer {
		var val Bytes
		return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
			for b, ok := values.NextBytes(); ok; b, ok = values.NextBytes() {
				val = b
				if err := out.Emit(key, &val); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return job
}

// teraRuns deals n TeraSort-shaped pairs (10-byte key, 88-byte value)
// round-robin into k runs and sorts each, as k map tasks would.
func teraRuns(rng *rand.Rand, k, n int) [][]Pair {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	runs := make([][]Pair, k)
	buf := make([]byte, 98)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		runs[i%k] = append(runs[i%k], Pair{Key: string(buf[:10]), Val: append([]byte(nil), buf[10:]...)})
	}
	for _, run := range runs {
		SortPairs(run)
	}
	return runs
}

// The bytes Finish returns on a scratch's writer are the scratch's part
// buffer, which the next task overwrites. That is safe only because every
// filesystem copies what WriteFile is given: after a second task on the
// same scratch, the first part must still read back as it was written,
// and as a fresh scratch writes it, for every container and filesystem.
// ReadOutput reads HDFS parts through views of the stored blocks; what it
// returns must equal what it returns over MemFS, empty parts included.
// The pass-through reduce (NextBytes, one reused Bytes) must store every
// part byte for byte as the reduce that decodes each value with Next.
func TestReduceScratchPartsOutliveTheScratch(t *testing.T) {
	filesystems := []struct {
		name string
		mk   func() vfs.FileSystem
	}{
		{"memfs", func() vfs.FileSystem { return vfs.NewMemFS() }},
		{"hdfs", func() vfs.FileSystem {
			d, err := hdfs.NewMiniDFS(sim.NewEngine(), cluster.NewTopology(cluster.PaperNodeConfig(3, 1)), hdfs.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return d.Client(0)
		}},
	}
	formats := []struct {
		name, format, codec string
		raw                 bool // the pass-through reduce, after the Next one
	}{
		{"text", "", "", false},
		{"gzip", "", "gzip", false},
		{"seq", OutputFormatSeq, "", false},
		{"text", "", "", true},
		{"gzip", "", "gzip", true},
		{"seq", OutputFormatSeq, "", true},
	}
	rng := rand.New(rand.NewSource(37))
	parts := [][][]Pair{teraRuns(rng, 3, 400), nil, teraRuns(rng, 2, 300)} // part 1 is empty
	memOutput := map[string]string{}                                       // by format
	nextParts := map[string][][]byte{}                                     // by filesystem and format
	for _, fsys := range filesystems {
		for _, f := range formats {
			job := identityJob()
			if f.raw {
				job = rawIdentityJob()
			}
			job.OutputFormat, job.OutputCodec = f.format, f.codec
			name := fmt.Sprintf("%s/%s (raw %v)", fsys.name, f.name, f.raw)

			// written runs both parts on s (fresh scratches when nil) and
			// returns the filesystem and part 0's bytes as first stored.
			written := func(s *ReduceScratch) (vfs.FileSystem, []byte) {
				fs := fsys.mk()
				if err := fs.Mkdir(job.OutputPath); err != nil {
					t.Fatal(err)
				}
				var first []byte
				for p, runs := range parts {
					path := vfs.Join(job.OutputPath, job.OutputPartName(p))
					if err := vfs.WriteFile(fs, path, reducePart(t, s, NewTaskContext(job.Name, fmt.Sprintf("r%d", p), fs, job), job, runs)); err != nil {
						t.Fatal(err)
					}
					if p == 0 {
						stored, err := vfs.ReadFile(fs, path)
						if err != nil {
							t.Fatal(err)
						}
						first = stored
					}
				}
				return fs, first
			}
			sharedFS, firstShared := written(new(ReduceScratch))
			freshFS, firstFresh := written(nil)

			path := vfs.Join(job.OutputPath, job.OutputPartName(0))
			after, err := vfs.ReadFile(sharedFS, path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, firstShared) || !bytes.Equal(after, firstFresh) {
				t.Fatalf("%s: part 0 changed after the next task ran on its scratch", name)
			}
			got, err := ReadOutput(sharedFS, job.OutputPath)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReadOutput(freshFS, job.OutputPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || strings.Count(got, "\n") != 700 {
				t.Fatalf("%s: output on a shared scratch (%d lines) differs from fresh scratches (%d lines)", name, strings.Count(got, "\n"), strings.Count(want, "\n"))
			}
			if mem, ok := memOutput[f.name]; !ok {
				memOutput[f.name] = got
			} else if got != mem {
				t.Fatalf("%s: ReadOutput differs from the Next path's parts on memfs", name)
			}
			var stored [][]byte
			for p := range parts {
				b, err := vfs.ReadFile(sharedFS, vfs.Join(job.OutputPath, job.OutputPartName(p)))
				if err != nil {
					t.Fatal(err)
				}
				stored = append(stored, b)
			}
			if key := fsys.name + "/" + f.name; !f.raw {
				nextParts[key] = stored
			} else if !reflect.DeepEqual(stored, nextParts[key]) {
				t.Fatalf("%s: stored parts differ from the Next path's", name)
			}
		}
	}
}

// valueSink keeps decoded values alive so measuring the decoder measures
// what a reducer pays for them.
var valueSink Value

// On a warm scratch an identity reduce allocates what its decoder does
// (DecodeText: the value's string and its interface box) and a fixed
// amount per task; the pass-through reduce, which decodes nothing, only
// the fixed amount. The parent runtime also spent, per task, the merged
// slice (100 k × 40 B = 4 MB here), one Values per group (48 B each,
// 4.8 MB) and a part buffer regrown by doubling (~2 × 10 MB): any one of
// them coming back breaks the 1 KiB slack many times over.
func TestWarmReduceScratchAllocationBudget(t *testing.T) {
	const nPairs = 100_000
	runs := teraRuns(rand.New(rand.NewSource(1)), 8, nPairs)
	fs := vfs.NewMemFS()
	for _, tc := range []struct {
		name   string
		job    *Job
		decode bool
	}{{"decode", identityJob(), true}, {"raw", rawIdentityJob(), false}} {
		job := tc.job
		var s ReduceScratch
		var ctx *TaskContext
		task := func() {
			w, err := s.NewOutputWriter(job)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ExecuteReduce(ctx, job, runs, w); err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		ctx = NewTaskContext("j", "r0", fs, job)
		task() // warm up
		ctx = NewTaskContext("j", "r1", fs, job)
		got := allocatedBy(task)
		var decoded uint64
		if tc.decode {
			decoded = allocatedBy(func() {
				for _, run := range runs {
					for _, p := range run {
						valueSink, _ = job.DecodeValue(p.Val)
					}
				}
			})
		}
		if n := ctx.Counters.Get(CtrReduceOutputRecords); n != nPairs {
			t.Fatalf("%s: task wrote %d records, want %d", tc.name, n, nPairs)
		}
		t.Logf("%s: warm reduce task: %d bytes allocated, its decoder %d", tc.name, got, decoded)
		if budget := decoded + 1<<10; got > budget {
			t.Errorf("%s: warm reduce task allocated %d bytes; its decoder %d, budget %d", tc.name, got, decoded, budget)
		}
	}
}
