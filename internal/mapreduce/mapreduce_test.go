package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

func TestValueCodecsRoundTrip(t *testing.T) {
	if err := quick.Check(func(i int64, f float64, s string) bool {
		vi, err := DecodeInt64(Int64(i).EncodeValue())
		if err != nil || vi.(Int64) != Int64(i) {
			return false
		}
		vf, err := DecodeFloat64(Float64(f).EncodeValue())
		if err != nil {
			return false
		}
		if f == f && vf.(Float64) != Float64(f) { // skip NaN identity
			return false
		}
		vs, err := DecodeText(Text(s).EncodeValue())
		return err == nil && vs.(Text) == Text(s)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInt64BadLength(t *testing.T) {
	if _, err := DecodeInt64([]byte{1, 2}); err == nil {
		t.Fatal("short Int64 decoded")
	}
	if _, err := DecodeFloat64([]byte{1}); err == nil {
		t.Fatal("short Float64 decoded")
	}
}

func TestHashPartitionInRange(t *testing.T) {
	if err := quick.Check(func(key string, n uint8) bool {
		parts := int(n%32) + 1
		p := HashPartition(key, parts)
		return p >= 0 && p < parts
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPartitionDeterministic(t *testing.T) {
	if HashPartition("alpha", 7) != HashPartition("alpha", 7) {
		t.Fatal("partitioner is not deterministic")
	}
}

// --- record reading ---

func linesOf(data []byte) []string {
	var out []string
	for _, l := range strings.Split(string(data), "\n") {
		out = append(out, strings.TrimSuffix(l, "\r"))
	}
	// Trailing newline produces one empty trailing element that is not a record.
	if len(out) > 0 && out[len(out)-1] == "" && len(data) > 0 && data[len(data)-1] == '\n' {
		out = out[:len(out)-1]
	}
	if len(data) == 0 {
		return nil
	}
	return out
}

func TestRecordsInRangeWholeFile(t *testing.T) {
	data := []byte("one\ntwo\nthree")
	recs := RecordsInRange(data, 0, 0, int64(len(data)))
	want := []Record{{0, "one"}, {4, "two"}, {8, "three"}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("got %v want %v", recs, want)
	}
}

func TestRecordsInRangeCRLF(t *testing.T) {
	data := []byte("a\r\nb\r\n")
	recs := RecordsInRange(data, 0, 0, int64(len(data)))
	if len(recs) != 2 || recs[0].Line != "a" || recs[1].Line != "b" {
		t.Fatalf("CRLF records: %v", recs)
	}
}

func TestRecordsSplitBoundaryProperty(t *testing.T) {
	// Property: for any content and any split size, concatenating the
	// records of consecutive splits yields exactly the file's lines, each
	// once, in order — the fundamental TextInputFormat invariant.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nLines := rng.Intn(20)
		var buf bytes.Buffer
		for i := 0; i < nLines; i++ {
			fmt.Fprintf(&buf, "line-%d-%s", i, strings.Repeat("x", rng.Intn(30)))
			if i < nLines-1 || rng.Intn(2) == 0 {
				buf.WriteByte('\n')
			}
		}
		data := buf.Bytes()
		if len(data) == 0 {
			continue
		}
		splitSize := int64(rng.Intn(25) + 1)
		var got []string
		for off := int64(0); off < int64(len(data)); off += splitSize {
			end := off + splitSize
			if end > int64(len(data)) {
				end = int64(len(data))
			}
			for _, r := range RecordsInRange(data, 0, off, end) {
				got = append(got, r.Line)
			}
		}
		want := linesOf(data)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d splitSize %d:\n got %q\nwant %q\ndata %q", trial, splitSize, got, want, data)
		}
	}
}

func TestRecordsInRangeWithDataWindow(t *testing.T) {
	// The distributed runtime passes a window that starts one byte before
	// the split; verify offsets stay file-absolute.
	file := []byte("aaaa\nbbbb\ncccc\n")
	off, end := int64(5), int64(10)
	window := file[off-1:]
	recs := RecordsInRange(window, off-1, off, end)
	if len(recs) != 1 || recs[0].Line != "bbbb" || recs[0].Offset != 5 {
		t.Fatalf("window records: %v", recs)
	}
}

// A split's records share one string: reading a 1 000-line split costs
// that string and the record slice, whatever the look-ahead holds.
func TestRecordsInRangeAllocations(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 1200; i++ {
		fmt.Fprintf(&buf, "row-%04d\tpayload\n", i)
	}
	data := buf.Bytes()
	lineLen := int64(len("row-0000\tpayload\n"))
	off, end := 100*lineLen+3, 1100*lineLen+3 // mid-record at both ends
	window := data[off-1:]
	var recs []Record
	allocs := testing.AllocsPerRun(20, func() { recs = RecordsInRange(window, off-1, off, end) })
	if len(recs) != 1000 {
		t.Fatalf("%d records, want 1000", len(recs))
	}
	if recs[0].Offset != 101*lineLen || recs[999].Line != "row-1100\tpayload" {
		t.Fatalf("first record at %d, last %q", recs[0].Offset, recs[999].Line)
	}
	if allocs > 3 {
		t.Fatalf("RecordsInRange over 1 000 lines made %.0f allocations, want ≤ 3", allocs)
	}
}

func TestComputeSplitsCoverage(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/a.txt", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/in/b.txt", make([]byte, 45)); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/in/empty.txt", nil); err != nil {
		t.Fatal(err)
	}
	splits, err := ComputeSplits(fs, []string{"/in"}, 40)
	if err != nil {
		t.Fatal(err)
	}
	// a.txt: 40+40+20, b.txt: 40+5.
	if len(splits) != 5 {
		t.Fatalf("got %d splits: %v", len(splits), splits)
	}
	covered := map[string]int64{}
	for _, s := range splits {
		covered[s.Path] += s.Length
		if s.Length <= 0 || s.Length > 40 {
			t.Fatalf("bad split length: %v", s)
		}
	}
	if covered["/in/a.txt"] != 100 || covered["/in/b.txt"] != 45 {
		t.Fatalf("coverage: %v", covered)
	}
}

func TestReadSplitRecords(t *testing.T) {
	fs := vfs.NewMemFS()
	content := "alpha\nbeta\ngamma\ndelta\n"
	if err := vfs.WriteFile(fs, "/f.txt", []byte(content)); err != nil {
		t.Fatal(err)
	}
	splits, err := ComputeSplits(fs, []string{"/f.txt"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, s := range splits {
		recs, _, err := ReadSplit(FSRangeReader(fs, s.Path), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			all = append(all, r.Line)
		}
	}
	want := []string{"alpha", "beta", "gamma", "delta"}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("records across splits = %v", all)
	}
}

// TestReadSplitLongRecord reads a record that starts in one split and runs
// more than the first look-ahead past its end: it comes back whole, once,
// and the splits sharing the file's reader still see the file's bytes.
func TestReadSplitLongRecord(t *testing.T) {
	const splitSize = 1 << 20
	long := strings.Repeat("x", 3*splitSize)
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/f.txt", []byte("head\n"+long+"\ntail\n")); err != nil {
		t.Fatal(err)
	}
	splits, err := ComputeSplits(fs, []string{"/f.txt"}, splitSize)
	if err != nil {
		t.Fatal(err)
	}
	read := FSRangeReader(fs, "/f.txt")
	var all []string
	for _, s := range splits {
		recs, _, err := ReadSplit(read, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			all = append(all, r.Line)
		}
	}
	if len(all) != 3 || all[0] != "head" || all[1] != long || all[2] != "tail" {
		lens := make([]int, len(all))
		for i, l := range all {
			lens[i] = len(l)
		}
		t.Fatalf("record lengths across %d splits = %v, want [4 %d 4]", len(splits), lens, len(long))
	}
}

// --- sorting, merging, grouping ---

func TestSortPairsStable(t *testing.T) {
	pairs := []Pair{{"b", []byte{2}}, {"a", []byte{1}}, {"b", []byte{1}}, {"a", []byte{2}}}
	SortPairs(pairs)
	want := []Pair{{"a", []byte{1}}, {"a", []byte{2}}, {"b", []byte{2}}, {"b", []byte{1}}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("got %v", pairs)
	}
}

func TestMergeSortedRunsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var runs [][]Pair
		var all []string
		for r := 0; r < rng.Intn(5); r++ {
			var run []Pair
			for i := 0; i < rng.Intn(10); i++ {
				k := fmt.Sprintf("k%02d", rng.Intn(20))
				run = append(run, Pair{Key: k})
				all = append(all, k)
			}
			SortPairs(run)
			runs = append(runs, run)
		}
		merged := MergeSortedRuns(runs)
		if len(merged) != len(all) {
			t.Fatalf("merged %d of %d pairs", len(merged), len(all))
		}
		sort.Strings(all)
		for i, p := range merged {
			if p.Key != all[i] {
				t.Fatalf("merge out of order at %d: %s vs %s", i, p.Key, all[i])
			}
		}
	}
}

func TestGroupIterate(t *testing.T) {
	pairs := []Pair{
		{"a", Int64(1).EncodeValue()},
		{"a", Int64(2).EncodeValue()},
		{"b", Int64(3).EncodeValue()},
	}
	groups := map[string]int64{}
	err := GroupIterate(pairs, DecodeInt64, func(key string, values *Values) error {
		var sum int64
		if err := values.Each(func(v Value) error {
			sum += int64(v.(Int64))
			return nil
		}); err != nil {
			return err
		}
		groups[key] = sum
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if groups["a"] != 3 || groups["b"] != 3 || len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestValuesLenAndExhaustion(t *testing.T) {
	v := &Values{decode: DecodeInt64, pairs: []Pair{{Key: "k", Val: Int64(5).EncodeValue()}}}
	if v.Len() != 1 {
		t.Fatalf("len = %d", v.Len())
	}
	if _, ok, _ := v.Next(); !ok {
		t.Fatal("first Next failed")
	}
	if _, ok, _ := v.Next(); ok {
		t.Fatal("iterator did not exhaust")
	}
}

// --- counters ---

func TestCountersMergeSumsAndPeaks(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	a.Inc(CtrMapInputRecords, 10)
	b.Inc(CtrMapInputRecords, 5)
	a.Max(CtrMapperMemoryPeak, 100)
	b.Max(CtrMapperMemoryPeak, 300)
	a.Merge(b)
	if a.Get(CtrMapInputRecords) != 15 {
		t.Fatalf("sum counter = %d", a.Get(CtrMapInputRecords))
	}
	if a.Get(CtrMapperMemoryPeak) != 300 {
		t.Fatalf("peak counter = %d", a.Get(CtrMapperMemoryPeak))
	}
}

func TestCountersMergeAdditiveProperty(t *testing.T) {
	// Property: merging task counters in any order yields the same totals.
	if err := quick.Check(func(vals []uint16) bool {
		fwd, rev := NewCounters(), NewCounters()
		for _, v := range vals {
			c := NewCounters()
			c.Inc("X", int64(v))
			fwd.Merge(c)
		}
		for i := len(vals) - 1; i >= 0; i-- {
			c := NewCounters()
			c.Inc("X", int64(vals[i]))
			rev.Merge(c)
		}
		return fwd.Get("X") == rev.Get("X")
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountersString(t *testing.T) {
	c := NewCounters()
	c.Inc("B", 2)
	c.Inc("A", 1)
	s := c.String()
	if !strings.Contains(s, "A=1") || strings.Index(s, "A=1") > strings.Index(s, "B=2") {
		t.Fatalf("counter string not sorted: %q", s)
	}
}

// --- job validation & context ---

func wordCountJob() *Job {
	return &Job{
		Name: "wc",
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, off int64, line string, out Emitter) error {
				for _, w := range strings.Fields(line) {
					if err := out.Emit(w, Int64(1)); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
				var sum int64
				if err := values.Each(func(v Value) error { sum += int64(v.(Int64)); return nil }); err != nil {
					return err
				}
				return out.Emit(key, Int64(sum))
			})
		},
		DecodeValue: DecodeInt64,
		InputPaths:  []string{"/in"},
		OutputPath:  "/out",
	}
}

func TestJobValidate(t *testing.T) {
	j := wordCountJob()
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *j
	bad.NewMapper = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil mapper validated")
	}
	bad2 := *j
	bad2.OutputPath = ""
	if err := bad2.Validate(); err == nil {
		t.Fatal("empty output validated")
	}
	bad3 := *j
	bad3.NumReducers = -1
	if err := bad3.Validate(); err == nil {
		t.Fatal("negative reducers validated")
	}
}

// reducePart runs one reduce task on s (through the package-level
// NewOutputWriter and ExecuteReduce when s is nil) and returns the
// finished part's bytes, which may be s's buffer.
func reducePart(t testing.TB, s *ReduceScratch, ctx *TaskContext, job *Job, runs [][]Pair) []byte {
	t.Helper()
	newWriter, execute := NewOutputWriter, ExecuteReduce
	if s != nil {
		newWriter, execute = s.NewOutputWriter, s.ExecuteReduce
	}
	w, err := newWriter(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(ctx, job, runs, w); err != nil {
		t.Fatal(err)
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestExecuteMapAndReduceEndToEnd(t *testing.T) {
	job := wordCountJob()
	fs := vfs.NewMemFS()
	ctx := NewTaskContext("wc", "m0", fs, job)
	records := []Record{{0, "the quick the"}, {14, "quick fox"}}
	out, err := ExecuteMap(ctx, job, records)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Counters.Get(CtrMapInputRecords); got != 2 {
		t.Fatalf("map input records = %d", got)
	}
	if got := ctx.Counters.Get(CtrMapOutputRecords); got != 5 {
		t.Fatalf("map output records = %d", got)
	}
	rctx := NewTaskContext("wc", "r0", fs, job)
	got := string(reducePart(t, nil, rctx, job, out.Partitions))
	for _, want := range []string{"the\t2", "quick\t2", "fox\t1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("reduce output missing %q:\n%s", want, got)
		}
	}
	if rctx.Counters.Get(CtrReduceInputGroups) != 3 {
		t.Fatalf("groups = %d", rctx.Counters.Get(CtrReduceInputGroups))
	}
}

func TestCombinerPreservesTotals(t *testing.T) {
	job := wordCountJob()
	job.NewCombiner = job.NewReducer // reducer-as-combiner, as in the lecture
	fs := vfs.NewMemFS()

	records := []Record{{0, "a a a b b c"}}
	ctxC := NewTaskContext("wc", "m0", fs, job)
	outC, err := ExecuteMap(ctxC, job, records)
	if err != nil {
		t.Fatal(err)
	}

	plain := wordCountJob()
	ctxP := NewTaskContext("wc", "m0", fs, plain)
	outP, err := ExecuteMap(ctxP, plain, records)
	if err != nil {
		t.Fatal(err)
	}

	// Combiner must shrink the map output...
	if outC.Records() >= outP.Records() {
		t.Fatalf("combiner did not reduce records: %d vs %d", outC.Records(), outP.Records())
	}
	if outC.Bytes() >= outP.Bytes() {
		t.Fatalf("combiner did not reduce bytes: %d vs %d", outC.Bytes(), outP.Bytes())
	}
	// ...without changing the final answer.
	gotC := string(reducePart(t, nil, NewTaskContext("wc", "r0", fs, job), job, outC.Partitions))
	gotP := string(reducePart(t, nil, NewTaskContext("wc", "r0", fs, plain), plain, outP.Partitions))
	if gotC != gotP {
		t.Fatalf("combiner changed results:\n%s\nvs\n%s", gotC, gotP)
	}
}

func TestSideFileAccessMetered(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/side/genres.dat", []byte("1::Action\n")); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob()
	job.SideFiles = []string{"/side/genres.dat"}
	ctx := NewTaskContext("j", "m0", fs, job)
	for i := 0; i < 3; i++ {
		if _, err := ctx.ReadSideFile("/side/genres.dat"); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.Counters.Get(CtrSideFileOpens) != 3 {
		t.Fatalf("opens = %d", ctx.Counters.Get(CtrSideFileOpens))
	}
	if ctx.Counters.Get(CtrSideFileBytesRead) != 30 {
		t.Fatalf("bytes = %d", ctx.Counters.Get(CtrSideFileBytesRead))
	}
	if _, err := ctx.ReadSideFile("/not/declared"); err == nil {
		t.Fatal("undeclared side file readable")
	}
}

func TestObserveMemoryPeak(t *testing.T) {
	fs := vfs.NewMemFS()
	ctx := NewTaskContext("j", "m0", fs, wordCountJob())
	ctx.ObserveMemory(100)
	ctx.ObserveMemory(200)
	ctx.ObserveMemory(-250)
	ctx.ObserveMemory(50)
	if peak := ctx.Counters.Get(CtrMapperMemoryPeak); peak != 300 {
		t.Fatalf("peak = %d, want 300", peak)
	}
}

func TestPartitionName(t *testing.T) {
	if PartitionName(3) != "part-r-00003" {
		t.Fatalf("name = %s", PartitionName(3))
	}
}

func TestMapperLifecycleHooks(t *testing.T) {
	type hookMapper struct {
		MapperFunc
		setup, closed *bool
	}
	// Build a mapper with Setup and Close via a struct type.
	var setup, closed bool
	job := wordCountJob()
	job.NewMapper = func() Mapper {
		return &lifecycleMapper{setup: &setup, closed: &closed}
	}
	_ = hookMapper{}
	fs := vfs.NewMemFS()
	ctx := NewTaskContext("j", "m0", fs, job)
	if _, err := ExecuteMap(ctx, job, []Record{{0, "x"}}); err != nil {
		t.Fatal(err)
	}
	if !setup || !closed {
		t.Fatalf("lifecycle hooks: setup=%v closed=%v", setup, closed)
	}
}

type lifecycleMapper struct {
	setup, closed *bool
}

func (m *lifecycleMapper) Setup(ctx *TaskContext) error { *m.setup = true; return nil }
func (m *lifecycleMapper) Map(ctx *TaskContext, off int64, line string, out Emitter) error {
	return out.Emit(line, Int64(1))
}
func (m *lifecycleMapper) Close(ctx *TaskContext, out Emitter) error {
	*m.closed = true
	return out.Emit("from-close", Int64(1))
}

func TestSpillBoundedBufferSameAnswer(t *testing.T) {
	// Property: the spill threshold must never change results — only the
	// SPILLED_RECORDS accounting and combiner effectiveness.
	fs := vfs.NewMemFS()
	records := []Record{}
	off := int64(0)
	for i := 0; i < 200; i++ {
		line := "alpha beta gamma alpha beta alpha"
		records = append(records, Record{Offset: off, Line: line})
		off += int64(len(line)) + 1
	}
	var outputs []string
	var spilled []int64
	for _, spillAt := range []int{0, 7, 100, 100000} {
		job := wordCountJob()
		job.NewCombiner = job.NewReducer
		job.SpillRecords = spillAt
		ctx := NewTaskContext("wc", "m0", fs, job)
		out, err := ExecuteMap(ctx, job, records)
		if err != nil {
			t.Fatal(err)
		}
		rctx := NewTaskContext("wc", "r0", fs, job)
		outputs = append(outputs, string(reducePart(t, nil, rctx, job, out.Partitions)))
		spilled = append(spilled, ctx.Counters.Get(CtrSpilledRecords))
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("spill threshold changed results:\n%s\nvs\n%s", outputs[i], outputs[0])
		}
	}
	// A tight buffer spills more records than an unbounded one: each spill
	// combines only its own window.
	if spilled[1] <= spilled[3] {
		t.Fatalf("tight buffer should spill more: %v", spilled)
	}
}

func TestSpillEachWindowCombined(t *testing.T) {
	// With a 1-record buffer every spill is one record; the merge-combine
	// still collapses them to one pair per key.
	fs := vfs.NewMemFS()
	job := wordCountJob()
	job.NewCombiner = job.NewReducer
	job.SpillRecords = 1
	ctx := NewTaskContext("wc", "m0", fs, job)
	out, err := ExecuteMap(ctx, job, []Record{{0, "x x x y"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Records(); got != 2 {
		t.Fatalf("final partition records = %d, want 2 (x and y)", got)
	}
}
