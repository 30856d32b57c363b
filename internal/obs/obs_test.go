package obs_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("x.count")
	c.Add(2)
	c.Inc()
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if r.Counter("x.count") != c {
		t.Fatal("counter not interned")
	}
	g := r.Gauge("x.gauge")
	g.Set(7)
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %d, want -1", got)
	}
	h := r.Histogram("x.hist")
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	if h.Count() != 2 || h.Sum() != 4*time.Millisecond {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	if r.CounterValue("x.count") != 3 || r.Gauge("x.gauge").Value() != -1 {
		t.Fatal("value lookup by name failed")
	}
	if r.CounterValue("never.seen") != 0 {
		t.Fatal("unknown counter should read 0")
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var r *obs.Registry
	r.Counter("a").Add(1)
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(time.Second)
	r.NewTrace(0).End("d", 0, 1, nil)
	if r.CounterValue("a") != 0 || len(r.Spans()) != 0 {
		t.Fatal("nil registry must be inert")
	}
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// spansNamed filters a registry's spans by name, in record order.
func spansNamed(r *obs.Registry, name string) []obs.Span {
	var out []obs.Span
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestSpansKeepRecordOrder(t *testing.T) {
	r := obs.NewRegistry()
	root := r.NewTrace(0)
	root.End("b", 10, 20, map[string]string{"k": "1"})
	root.ChildSpan("a", 5, 15, nil)
	root.End("b", 30, 40, nil)
	spans := r.Spans()
	if len(spans) != 3 || spans[0].Name != "b" || spans[1].Name != "a" {
		t.Fatalf("spans out of record order: %+v", spans)
	}
	if got := spansNamed(r, "b"); len(got) != 2 || got[1].Start != 30 {
		t.Fatalf("spans named b = %+v", got)
	}
	if d := spans[0].Duration(); d != 10 {
		t.Fatalf("duration = %v", d)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("h")
	h.Observe(0)                    // first bucket (<= 1µs)
	h.Observe(time.Microsecond)     // still first bucket (inclusive bound)
	h.Observe(3 * time.Microsecond) // third bucket (<= 4µs)
	h.Observe(100 * time.Hour)      // overflow
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	if hs.Count != 4 {
		t.Fatalf("count = %d", hs.Count)
	}
	var first, overflow int64
	for _, b := range hs.Buckets {
		switch b.Le {
		case int64(time.Microsecond):
			first = b.Count
		case -1:
			overflow = b.Count
		}
	}
	if first != 2 || overflow != 1 {
		t.Fatalf("buckets = %+v (first=%d overflow=%d)", hs.Buckets, first, overflow)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []time.Duration{10, 20, 30, 40}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.01, 10}, {0.25, 10}, {0.5, 20}, {0.99, 40}, {1, 40}} {
		if got := obs.Percentile(sorted, c.q); got != c.want {
			t.Errorf("Percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := obs.Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
}

// TestPercentileRankIsCeiling: the nearest rank of q over n values is
// ceil(q·n), not q·n rounded, and a product that float arithmetic puts a
// hair past an integer keeps that integer.
func TestPercentileRankIsCeiling(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		rank time.Duration
	}{{10, 0.14, 2}, {100, 0.07, 7}, {1260, 0.99, 1248}, {1260, 1, 1260}, {1, 0.5, 1}} {
		sorted := make([]time.Duration, c.n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		if got := obs.Percentile(sorted, c.q); got != c.rank {
			t.Errorf("Percentile(n=%d, q=%v) = value %d, want value %d", c.n, c.q, got, c.rank)
		}
	}
}

// TestSnapshotJSONDeterministic builds the same registry twice through
// different interleavings and expects byte-identical exports — the
// property the golden-trace harness rests on.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func(reverse bool) []byte {
		r := obs.NewRegistry()
		names := []string{"z.last", "a.first", "m.mid"}
		if reverse {
			names = []string{"m.mid", "a.first", "z.last"}
		}
		for _, n := range names {
			r.Counter(n).Add(int64(len(n)))
			r.Gauge("g." + n).Set(42)
			r.Histogram("h." + n).Observe(time.Duration(len(n)) * time.Millisecond)
		}
		r.NewTrace(0).End("op", 100, 200, map[string]string{"zz": "2", "aa": "1"})
		data, err := r.SnapshotJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(build(false), build(true)) {
		t.Fatal("snapshot JSON depends on interning order")
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run
// under -race (make check / make race) this proves the hot paths are
// race-clean, which the serial runner's parallel mappers require.
func TestConcurrentUse(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("par.count")
	h := r.Histogram("par.hist")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
				h.Observe(time.Duration(j) * time.Microsecond)
				r.Counter("par.shared").Inc()
				if j%100 == 0 {
					r.NewTrace(0).End("par.op", time.Duration(i), time.Duration(j), nil)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 || r.CounterValue("par.shared") != 8000 {
		t.Fatalf("lost updates: %d / %d", c.Value(), r.CounterValue("par.shared"))
	}
	if h.Count() != 8000 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if got := len(spansNamed(r, "par.op")); got != 80 {
		t.Fatalf("spans = %d", got)
	}
}
