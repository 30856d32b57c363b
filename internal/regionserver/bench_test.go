package regionserver

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// routedGets builds a 4-server cluster holding 2 000 bulk-loaded rows in 8
// regions and returns a function performing n routed gets into one reused
// buffer, cycling over the first `span` keys. Traces are sampled out, as
// in a timed benchmark run, and the split triggers are out of reach: what
// is left is the per-op path — route, epoch check, server queue, store
// lookup — read through a 4×16-entry cache tier when cached is set.
func routedGets(tb testing.TB, cached bool) func(n, span int) {
	reg := obs.NewRegistry()
	reg.SetTraceSampling(1 << 30)
	eng := sim.NewEngine()
	c := newClusterOn(tb, eng, vfs.NewMemFS(), 4, Options{Obs: reg, SplitMaxOps: 1 << 30, SplitMaxBytes: 1 << 30})
	const rows = 2000
	var splitKeys []string
	for i := 1; i < 8; i++ {
		splitKeys = append(splitKeys, datagen.YCSBKey(i*rows/8))
	}
	if err := c.Master.CreateTable("t", splitKeys); err != nil {
		tb.Fatal(err)
	}
	kvs := make([]kvstore.KV, rows)
	keys := make([]string, rows)
	for i, op := range datagen.YCSBLoad(rows, 100) {
		kvs[i] = kvstore.KV{Key: op.Key, Value: op.Value}
		keys[i] = op.Key
	}
	if err := c.Master.BulkLoadTable("t", kvs); err != nil {
		tb.Fatal(err)
	}
	cl := c.NewClient()
	if cached {
		cl = c.NewCachedClient(4, 16)
	}
	var buf []byte
	i := 0
	return func(n, span int) {
		for ; n > 0; n-- {
			k := keys[i%span]
			v, _, err := cl.getInto(buf, eng.Now(), "t", k)
			if err != nil || len(v) != 100 {
				tb.Fatalf("get %s: %d bytes, %v", k, len(v), err)
			}
			buf = v
			i++
		}
	}
}

// TestRoutedGetDoesNotAllocate: a get that discards its value costs no
// garbage — no value copy, no closure, no RegionInfo on the heap.
func TestRoutedGetDoesNotAllocate(t *testing.T) {
	get := routedGets(t, false)
	get(10, 2000) // fetch the region list, size the buffer
	if n := testing.AllocsPerRun(500, func() { get(1, 2000) }); n != 0 {
		t.Fatalf("a routed get into a reused buffer made %v allocations, want 0", n)
	}
}

// TestCachedGetDoesNotAllocate: through a warmed cache tier, neither a
// hit nor a miss that reads through, fills and evicts makes garbage — no
// key string, no list element, no entry, no value copy for the shard.
func TestCachedGetDoesNotAllocate(t *testing.T) {
	get := routedGets(t, true)
	get(2000, 2000) // fill and overflow every shard
	if n := testing.AllocsPerRun(500, func() { get(1, 2000) }); n != 0 {
		t.Fatalf("a cache miss that fills and evicts made %v allocations, want 0", n)
	}
	get(1, 1) // the first key is now cached
	if n := testing.AllocsPerRun(500, func() { get(1, 1) }); n != 0 {
		t.Fatalf("a cache hit made %v allocations, want 0", n)
	}
}

func BenchmarkRoutedGet(b *testing.B) {
	get := routedGets(b, false)
	get(10, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	get(b.N, 2000)
}

// BenchmarkCachedGet is BenchmarkRoutedGet through the cache tier: hit
// gets one cached row, miss cycles over more rows than the tier holds,
// so every get reads through, fills and evicts.
func BenchmarkCachedGet(b *testing.B) {
	for _, c := range []struct {
		name string
		span int
	}{{"hit", 1}, {"miss", 2000}} {
		b.Run(c.name, func(b *testing.B) {
			get := routedGets(b, true)
			get(2000, 2000)
			get(1, c.span)
			b.ReportAllocs()
			b.ResetTimer()
			get(b.N, c.span)
		})
	}
}

// splitter builds a cluster whose table has `regions` regions of `rows`
// bulk-loaded rows each, in three store files per region, and returns a
// function that splits the next region not split yet and one that stops
// the cluster. Nothing else holds the cluster, so a benchmark that builds
// one per chunk keeps one alive at a time.
func splitter(tb testing.TB, regions, rows int) (split, stop func()) {
	c, err := New(sim.NewEngine(), vfs.NewMemFS(), cluster.NewTopology(cluster.PaperNodeConfig(5, 1)), Options{
		Servers: 4, Obs: obs.NewRegistry(), SplitMaxOps: 1 << 30, SplitMaxBytes: 1 << 40,
		KV: kvstore.Config{CompactTrigger: 100},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var splitKeys []string
	for i := 1; i < regions; i++ {
		splitKeys = append(splitKeys, datagen.YCSBKey(i*rows))
	}
	if err := c.Master.CreateTable("t", splitKeys); err != nil {
		tb.Fatal(err)
	}
	load := datagen.YCSBLoad(regions*rows, 100)
	for file := 0; file < 3; file++ {
		var kvs []kvstore.KV
		for i := file; i < len(load); i += 3 {
			kvs = append(kvs, kvstore.KV{Key: load[i].Key, Value: load[i].Value})
		}
		if err := c.Master.BulkLoadTable("t", kvs); err != nil {
			tb.Fatal(err)
		}
	}
	parents, err := c.Master.Regions("t")
	if err != nil {
		tb.Fatal(err)
	}
	next := 0
	return func() {
		if next == len(parents) {
			tb.Fatalf("all %d regions are split", len(parents))
		}
		info := parents[next]
		next++
		srv := c.Master.byName[info.Srv]
		if err := c.Master.splitRegion(info, srv, srv.regions[info.ID]); err != nil {
			tb.Fatal(err)
		}
	}, c.Stop
}

// TestSplitAllocationsFollowFilesNotRows: a split writes a marker per
// store file and daughter and touches no row, so twenty times the rows in
// the same three files cost the same allocations.
func TestSplitAllocationsFollowFilesNotRows(t *testing.T) {
	perSplit := func(rows int) float64 {
		split, stop := splitter(t, 10, rows)
		defer stop()
		return testing.AllocsPerRun(8, split) // 1 warm-up + 8 measured, of 10
	}
	small, large := perSplit(300), perSplit(6000)
	t.Logf("%.0f allocations per split of 300 rows, %.0f of 6000", small, large)
	if large > small+2 || small > 250 {
		t.Fatalf("a split of 6000 rows made %.0f allocations, one of 300 rows %.0f; want the same, under 250", large, small)
	}
}

func BenchmarkSplit(b *testing.B) {
	const rows = 2500 // a kv-read region before its first split
	b.ReportAllocs()
	b.StopTimer()
	for done := 0; done < b.N; {
		n := min(b.N-done, 64)
		split, stop := splitter(b, n, rows)
		b.StartTimer()
		for i := 0; i < n; i++ {
			split()
		}
		b.StopTimer()
		stop()
		done += n
	}
}
