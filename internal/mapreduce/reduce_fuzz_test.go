package mapreduce

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// reduceGroup is what a reducer saw of one group.
type reduceGroup struct {
	key  string
	n    int // Values.Len
	vals []string
}

// recordGroup drains values into a reduceGroup, reading each value with
// NextBytes when raw says so and with Next otherwise.
func recordGroup(key string, values *Values, raw func() bool) (reduceGroup, error) {
	g := reduceGroup{key: key, n: values.Len()}
	for {
		if raw() {
			b, ok := values.NextBytes()
			if !ok {
				return g, nil
			}
			g.vals = append(g.vals, string(b))
			continue
		}
		v, ok, err := values.Next()
		if !ok || err != nil {
			return g, err
		}
		g.vals = append(g.vals, v.String())
	}
}

// prefixGroup is the fuzz target's grouping comparator: the key up to '#'.
func prefixGroup(key string) string {
	g, _, _ := strings.Cut(key, "#")
	return g
}

// fuzzKeys are the keys a fuzz byte picks from: three prefixes, each
// alone and with three '#' suffixes, so a prefix group holds several
// distinct full keys and sorts contiguously.
var fuzzKeys = func() []string {
	var keys []string
	for _, suffix := range []string{"", "#0", "#1", "#2"} {
		for _, prefix := range []string{"a", "b", "c"} {
			keys = append(keys, prefix+suffix)
		}
	}
	return keys
}()

// fuzzRuns decodes a fuzz input: data[0] picks 1–9 runs (low bits) and
// whether GroupKey is set (top bit); every later byte b is one pair, in
// run b%runs under key fuzzKeys[b/runs%12], whose value is the pair's
// index so that any reordering of equal keys shows. Each run is then
// stably sorted, as a map task's output is.
func fuzzRuns(data []byte) (runs [][]Pair, groupKey func(string) string) {
	n := int(data[0]&0x7f)%9 + 1
	if data[0]&0x80 != 0 {
		groupKey = prefixGroup
	}
	runs = make([][]Pair, n)
	for i, b := range data[1:] {
		r := int(b) % n
		runs[r] = append(runs[r], Pair{Key: fuzzKeys[int(b)/n%len(fuzzKeys)], Val: []byte(strconv.Itoa(i))})
	}
	for _, run := range runs {
		SortPairs(run)
	}
	return runs, groupKey
}

// fuzzSeed encodes pairs given as (run, index into fuzzKeys) for n runs.
func fuzzSeed(n int, grouped bool, pairs ...[2]int) []byte {
	head := byte(n - 1)
	if grouped {
		head |= 0x80
	}
	data := []byte{head}
	for _, p := range pairs {
		data = append(data, byte(p[1]*n+p[0]))
	}
	return data
}

// FuzzReduceGroups is a differential target for the streaming reduce: for
// any 1–9 sorted runs, with duplicate keys inside and across runs and
// with or without a GroupKey, the groups a ReduceScratch hands its
// reducer — key, Len and values in order — are those of grouping one
// fresh merged slice. The reference merge is a stable sort of the runs
// concatenated in run order (equal keys keep run order, then position),
// which MergeSortedRuns must also equal. The reference reads every value
// with Next; the reducer reads each with Next or NextBytes, as a bit of
// the input picks. One scratch serves every input, so state an input
// leaves behind shows up in a later one.
func FuzzReduceGroups(f *testing.F) {
	const a, b, c, aH0, aH1, bH0 = 0, 1, 2, 3, 6, 4
	f.Add(fuzzSeed(1, false))
	f.Add(fuzzSeed(3, false, [2]int{0, a}, [2]int{1, a}, [2]int{2, a}, [2]int{2, b}))
	f.Add(fuzzSeed(4, false, [2]int{3, a}, [2]int{1, a}, [2]int{0, a}, [2]int{2, a}, [2]int{1, c}, [2]int{1, a}))
	f.Add(fuzzSeed(2, true, [2]int{0, aH0}, [2]int{1, aH0}, [2]int{0, aH1}, [2]int{1, bH0}, [2]int{0, b}))
	f.Add(fuzzSeed(3, true, [2]int{0, a}, [2]int{1, aH1}, [2]int{2, aH0}, [2]int{2, aH0}, [2]int{0, c}))
	f.Add(fuzzSeed(9, false, [2]int{8, b}, [2]int{7, b}, [2]int{0, a}, [2]int{4, b}, [2]int{4, b}, [2]int{5, c}))
	f.Add([]byte("\x85the quick brown fox jumps over the lazy dog"))

	var s ReduceScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runs, groupKey := fuzzRuns(data)
		var all []Pair
		for _, run := range runs {
			all = append(all, run...)
		}
		SortPairs(all)
		if merged := MergeSortedRuns(runs); !samePairs(merged, all) {
			t.Fatalf("MergeSortedRuns = %v, want %v", merged, all)
		}

		var want []reduceGroup
		addWant := func(key string, values *Values) error {
			g, err := recordGroup(key, values, func() bool { return false })
			want = append(want, g)
			return err
		}
		if groupKey == nil {
			if err := GroupIterate(all, DecodeText, addWant); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < len(all); {
				j := i + 1
				for j < len(all) && groupKey(all[j].Key) == groupKey(all[i].Key) {
					j++
				}
				if err := addWant(all[i].Key, &Values{decode: DecodeText, pairs: all[i:j]}); err != nil {
					t.Fatal(err)
				}
				i = j
			}
		}

		var got []reduceGroup
		reads := 0
		raw := func() bool { // a bit of the input per value read
			reads++
			return data[reads%len(data)]>>(reads%7)&1 != 0
		}
		job := &Job{
			NewReducer: func() Reducer {
				return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
					g, err := recordGroup(key, values, raw)
					got = append(got, g)
					return err
				})
			},
			DecodeValue: DecodeText,
			GroupKey:    groupKey,
		}
		w, err := s.NewOutputWriter(job)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewTaskContext("fuzz", "r0", nil, job)
		if _, err := s.ExecuteReduce(ctx, job, runs, w); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("groups on the shared scratch:\n%v\nwant:\n%v", got, want)
		}
		// A finished task leaves nothing in the scratch that points at
		// its pairs (the part buffer holds bytes only).
		for _, p := range s.window[:cap(s.window)] {
			if p.Key != "" || p.Val != nil {
				t.Fatalf("the window still holds %v after the task", p)
			}
		}
		for _, c := range s.merge.h[:cap(s.merge.h)] {
			if c.key != "" {
				t.Fatalf("the merge heap still holds key %q after the task", c.key)
			}
		}
		if s.merge.runs != nil {
			t.Fatal("the merge heap still holds the task's runs")
		}
		if n := ctx.Counters.Get(CtrReduceInputGroups); n != int64(len(want)) {
			t.Fatalf("%s = %d, want %d", CtrReduceInputGroups, n, len(want))
		}
		if n := ctx.Counters.Get(CtrReduceInputRecords); n != int64(len(all)) {
			t.Fatalf("%s = %d, want %d", CtrReduceInputRecords, n, len(all))
		}
	})
}
