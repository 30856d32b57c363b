package mapreduce

import (
	"slices"
	"strings"
)

// keyIndex is the sort key the shuffle actually orders by: the record's
// key plus its emission index. Sorting these 24-byte headers (instead of
// swapping full Pair structs through a reflective comparator, as the old
// sort.SliceStable implementation did) keeps the hot comparison loop in
// cache and makes an unstable pattern-defeating quicksort equivalent to a
// stable sort — the index breaks every tie deterministically.
type keyIndex struct {
	key string
	i   int32
}

// sortScratch is the working memory of sortPairsInto, kept between calls
// so a map task's spills — and the next task's — pay for it once. The zero
// value is ready to use. Every call clears the keys it stored before it
// returns, so an idle scratch pins no map output.
type sortScratch struct {
	idx    []keyIndex       // general path: one (key, index) header per pair
	gids   []int32          // grouped path: each pair's group id
	groups []keyIndex       // grouped path: each distinct key plus its group id
	counts []int32          // grouped path: pairs per group
	offs   []int32          // grouped path: each group's next output slot
	gidOf  map[string]int32 // grouped path: key -> group id; also the sample set
}

// resized returns a slice of length n over s's backing array when that is
// large enough, else over a new one with a quarter to spare, so a run of
// slightly larger tasks does not reallocate for each. The contents are
// unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// SortPairs orders pairs by key, in place. Equal keys keep their emission
// order so that values for a key arrive at the reducer deterministically,
// which several of the course jobs rely on.
func SortPairs(pairs []Pair) {
	if len(pairs) < 2 {
		return
	}
	sortPairsInto(pairs, slices.Clone(pairs), new(sortScratch))
}

// sortPairsInto writes src's pairs into dst (same length, no overlap) in
// SortPairs order, leaving src untouched.
//
// Two strategies produce that order. The general path sorts (key, index)
// headers. Duplicate-heavy outputs — counting jobs emit each word
// thousands of times — instead group by key first and sort only the
// distinct keys, turning an O(n log n) comparison sort into O(u log u)
// for u unique keys plus two linear passes. A small sample of the input
// picks the strategy; both yield byte-identical results.
func sortPairsInto(dst, src []Pair, s *sortScratch) {
	n := len(src)
	if n < 2 {
		copy(dst, src)
		return
	}
	if n >= dupSampleMinLen && s.looksDuplicateHeavy(src) {
		s.groupSortInto(dst, src)
		return
	}
	idx := resized(s.idx, n)
	s.idx = idx
	for i, p := range src {
		idx[i] = keyIndex{key: p.Key, i: int32(i)}
	}
	slices.SortFunc(idx, func(a, b keyIndex) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return int(a.i) - int(b.i)
	})
	for i, k := range idx {
		dst[i] = src[k.i]
	}
	clear(idx)
}

const (
	dupSampleMinLen = 512 // below this the direct sort always wins
	dupSampleSize   = 64
)

// looksDuplicateHeavy samples evenly spaced keys and reports whether the
// sample repeats keys enough to justify the grouped sort. It is only a
// performance heuristic: either answer leaves the sorted output identical.
func (s *sortScratch) looksDuplicateHeavy(pairs []Pair) bool {
	seen := s.keyMap()
	step := len(pairs) / dupSampleSize
	for i := 0; i < dupSampleSize; i++ {
		seen[pairs[i*step].Key] = 0
	}
	distinct := len(seen)
	clear(seen)
	return distinct <= dupSampleSize*3/4
}

// keyMap returns the scratch's (empty) key map, making it on first use.
func (s *sortScratch) keyMap() map[string]int32 {
	if s.gidOf == nil {
		s.gidOf = make(map[string]int32, dupSampleSize)
	}
	return s.gidOf
}

// groupSortInto is the duplicate-heavy strategy: assign each distinct key
// a group, sort the groups, then scatter the pairs into their group's
// window of dst in emission order.
func (s *sortScratch) groupSortInto(dst, src []Pair) {
	gids := resized(s.gids, len(src))
	s.gids = gids
	groups, counts := s.groups[:0], s.counts[:0]
	gidOf := s.keyMap()
	for i, p := range src {
		g, ok := gidOf[p.Key]
		if !ok {
			g = int32(len(groups))
			gidOf[p.Key] = g
			groups = append(groups, keyIndex{key: p.Key, i: g})
			counts = append(counts, 0)
		}
		gids[i] = g
		counts[g]++
	}
	slices.SortFunc(groups, func(a, b keyIndex) int {
		return strings.Compare(a.key, b.key) // keys are distinct: no ties
	})
	offs := resized(s.offs, len(groups))
	s.offs = offs
	var off int32
	for _, g := range groups {
		offs[g.i] = off
		off += counts[g.i]
	}
	for i, p := range src {
		g := gids[i]
		dst[offs[g]] = p
		offs[g]++
	}
	clear(groups)
	clear(gidOf)
	s.groups, s.counts = groups, counts
}

// mergeCursor is one run's position inside the k-way merge heap, with
// the key at that position kept beside it so comparisons stay in the heap.
type mergeCursor struct {
	key string // runs[run][pos].Key
	run int    // index into runs, the deterministic tie-breaker
	pos int
}

// mergeHeap is the reduce-side merge: the heads of pre-sorted runs (one
// per map task) in a binary heap ordered by (key, run index), so each pair
// costs O(log k) comparisons and ties across runs resolve in run order.
// The zero value is empty; a ReduceScratch keeps one across tasks.
type mergeHeap struct {
	runs [][]Pair
	h    []mergeCursor
}

// reset loads runs and returns their total length.
func (m *mergeHeap) reset(runs [][]Pair) int {
	m.runs, m.h = runs, slices.Grow(m.h[:0], len(runs))
	total := 0
	for i, r := range runs {
		if len(r) > 0 {
			m.h = append(m.h, mergeCursor{key: r[0].Key, run: i})
			total += len(r)
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return total
}

func (a mergeCursor) less(b mergeCursor) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.run < b.run
}

func (m *mergeHeap) siftDown(i int) {
	h := m.h
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		c := l
		if r := l + 1; r < len(h) && h[r].less(h[l]) {
			c = r
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pop removes and returns the smallest pair; the heap must not be empty.
func (m *mergeHeap) pop() Pair {
	c := &m.h[0]
	run := m.runs[c.run]
	p := run[c.pos]
	if c.pos++; c.pos < len(run) {
		c.key = run[c.pos].Key
	} else {
		last := len(m.h) - 1
		m.h[0] = m.h[last]
		m.h = m.h[:last]
	}
	m.siftDown(0)
	return p
}

// MergeSortedRuns merges pre-sorted runs of pairs into a single sorted
// slice, ties in run order: a drain of the heap a ReduceScratch streams
// its groups from.
func MergeSortedRuns(runs [][]Pair) []Pair {
	var m mergeHeap
	out := make([]Pair, 0, m.reset(runs))
	for len(m.h) > 0 {
		out = append(out, m.pop())
	}
	return out
}

// Values iterates the decoded values of one reduce group. It decodes
// lazily so the raw (metered) bytes are what travelled through the
// shuffle. A *Values is valid only during the Reduce call it is handed
// to: as Hadoop reuses its value iterator, the runtime hands every group
// the same one, over a window it refills for the next group.
type Values struct {
	decode ValueDecoder
	pairs  []Pair
	i      int
}

// Next returns the next value, or ok=false when exhausted.
func (v *Values) Next() (Value, bool, error) {
	if v.i >= len(v.pairs) {
		return nil, false, nil
	}
	val, err := v.decode(v.pairs[v.i].Val)
	if err != nil {
		return nil, false, err
	}
	v.i++
	return val, true, nil
}

// Each applies fn to every remaining value.
func (v *Values) Each(fn func(Value) error) error {
	for {
		val, ok, err := v.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(val); err != nil {
			return err
		}
	}
}

// Len returns the total number of values in the group.
func (v *Values) Len() int { return len(v.pairs) }

// GroupIterate walks a sorted pair slice group by group, invoking fn once
// per distinct key with an iterator over that key's values. Every group
// is handed the same *Values.
func GroupIterate(sorted []Pair, decode ValueDecoder, fn func(key string, values *Values) error) error {
	v := new(Values)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].Key == sorted[i].Key {
			j++
		}
		*v = Values{decode: decode, pairs: sorted[i:j]}
		if err := fn(sorted[i].Key, v); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// pairCollector is an Emitter that appends encoded pairs to a slice.
type pairCollector struct {
	pairs []Pair
}

func (p *pairCollector) Emit(key string, value Value) error {
	p.pairs = append(p.pairs, Pair{Key: key, Val: value.EncodeValue()})
	return nil
}

// RunCombiner applies the job's combiner to a sorted partition of map
// output, returning the (sorted) combined pairs — always a fresh slice —
// and updating the combine counters. With no combiner configured it
// returns the input unchanged.
func RunCombiner(ctx *TaskContext, job *Job, sorted []Pair) ([]Pair, error) {
	if job.NewCombiner == nil {
		return sorted, nil
	}
	combiner := job.NewCombiner()
	// One pair per group is what every combiner in internal/jobs emits;
	// one that emits more just grows the slice.
	col := &pairCollector{pairs: make([]Pair, 0, countGroups(sorted))}
	var inRecords int64
	err := GroupIterate(sorted, job.DecodeValue, func(key string, values *Values) error {
		inRecords += int64(values.Len())
		return combiner.Reduce(ctx, key, values, col)
	})
	ctx.Counters.Inc(CtrCombineInputRecords, inRecords)
	if err != nil {
		return nil, err
	}
	ctx.Counters.Inc(CtrCombineOutputRecords, int64(len(col.pairs)))
	// A combiner that emits its group's key, once per group, leaves the
	// output sorted already; only one that rewrites keys needs the sort.
	if !slices.IsSortedFunc(col.pairs, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) }) {
		SortPairs(col.pairs)
	}
	return col.pairs, nil
}

// countGroups returns the number of distinct keys in a sorted run.
func countGroups(sorted []Pair) int {
	n := 0
	for i := range sorted {
		if i == 0 || sorted[i].Key != sorted[i-1].Key {
			n++
		}
	}
	return n
}
