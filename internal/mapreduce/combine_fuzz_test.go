package mapreduce

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// combineEmissions decodes a fuzz input into a map task's emissions: the
// low bit of data[0] picks a large vocabulary, its other bits repeat the
// remaining bytes 1–128 times. Emission i, under byte b in repeat r, has
// the value i, so that any reordering of equal keys shows, and the key
// fuzzKeys[(b+r)%12] from the small vocabulary or (64b+131i) mod 16 384,
// which mostly changes emission to emission, from the large one. Long
// enough inputs over the small vocabulary take the grouped sort, those
// over the large one the general sort.
func combineEmissions(data []byte) []Pair {
	if len(data) < 2 {
		return nil
	}
	large, body := data[0]&1 != 0, data[1:]
	n := len(body) * (int(data[0]>>1) + 1)
	pairs := make([]Pair, n)
	for i := range pairs {
		b, r := int(body[i%len(body)]), i/len(body)
		key := fuzzKeys[(b+r)%len(fuzzKeys)]
		if large {
			key = "w" + strconv.Itoa((b<<6+131*i)%16384)
		}
		pairs[i] = Pair{Key: key, Val: []byte(strconv.Itoa(i))}
	}
	return pairs
}

// combineSeeds are FuzzCombineGroups' seeds: both vocabularies, below and
// above dupSampleMinLen, and an empty input.
var combineSeeds = [][]byte{
	{},
	{0, 3},
	{0, 0, 1, 0, 2, 1, 0},
	{1, 9, 9, 200, 9},
	{0xfe, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	{0x7e, 5, 5, 5, 7},
	{0xff, 1, 2, 3, 4, 5, 6, 7, 8},
	{0x41, 250, 3, 17, 17, 90, 4, 4, 4, 128, 66},
	[]byte("\x80the quick brown fox jumps over the lazy dog"),
}

// The seeds take both sort strategies, so each is fuzzed from the start.
func TestCombineSeedsTakeBothStrategies(t *testing.T) {
	var s sortScratch
	taken := map[bool]bool{}
	for _, data := range combineSeeds {
		if pairs := combineEmissions(data); len(pairs) >= dupSampleMinLen {
			taken[s.looksDuplicateHeavy(chunksOf(pairs))] = true
		}
	}
	if !taken[true] || !taken[false] {
		t.Fatalf("seeds over %d pairs took duplicate-heavy %v, want both", dupSampleMinLen, taken)
	}
}

// FuzzCombineGroups is a differential target for the map-side combine:
// for any emission sequence, the groups combineChunks hands its combiner
// — key, Len and values in emission order — are those GroupIterate finds
// in a stable sort of the emissions. The reference reads every value with
// Next; the combiner reads each with Next, NextBytes or Each, as input
// bits pick. The combiner emits each group's values joined, so the
// combined run is checked too. One scratch serves every input, so state
// an input leaves behind shows up in a later one.
func FuzzCombineGroups(f *testing.F) {
	for _, seed := range combineSeeds {
		f.Add(seed)
	}
	var s sortScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs := combineEmissions(data)
		var want []reduceGroup
		var wantRun []Pair
		err := GroupIterate(stableSortedCopy(pairs), DecodeText, func(key string, values *Values) error {
			g, err := readGroup(key, values, func() int { return 0 })
			want = append(want, g)
			wantRun = append(wantRun, Pair{Key: key, Val: []byte(strings.Join(g.vals, ","))})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}

		var got []reduceGroup
		reads := 0
		pick := func() int { // two bits of the input per value read
			reads++
			return int(data[reads%len(data)]>>(reads%7)&3) % 3
		}
		job := wordCountJob()
		job.DecodeValue = DecodeText
		job.NewCombiner = func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key string, values *Values, out Emitter) error {
				g, err := readGroup(key, values, pick)
				got = append(got, g)
				if err != nil {
					return err
				}
				return out.Emit(key, Text(strings.Join(g.vals, ",")))
			})
		}
		ctx := NewTaskContext("fuzz", "m0", nil, job)
		run, err := combineChunks(ctx, job, chunksOf(pairs), &s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("groups on the shared scratch:\n%v\nwant:\n%v", got, want)
		}
		if !samePairs(run, wantRun) {
			t.Fatalf("combined run %v, want %v", run, wantRun)
		}
		assertSortScratchClear(t, &s)
		if n := ctx.Counters.Get(CtrCombineInputRecords); n != int64(len(pairs)) {
			t.Fatalf("%s = %d, want %d", CtrCombineInputRecords, n, len(pairs))
		}
		if n := ctx.Counters.Get(CtrCombineOutputRecords); n != int64(len(want)) {
			t.Fatalf("%s = %d, want %d", CtrCombineOutputRecords, n, len(want))
		}
	})
}
