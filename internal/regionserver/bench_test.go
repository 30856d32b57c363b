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
// buffer, cycling over the keys. Traces are sampled out, as in a timed
// benchmark run, and the split triggers are out of reach: what is left is
// the per-op path — route, epoch check, server queue, store lookup.
func routedGets(tb testing.TB) func(n int) {
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
	var buf []byte
	i := 0
	return func(n int) {
		for ; n > 0; n-- {
			v, _, err := cl.getInto(buf, eng.Now(), "t", keys[i%rows])
			if err != nil || len(v) != 100 {
				tb.Fatalf("get %s: %d bytes, %v", keys[i%rows], len(v), err)
			}
			buf = v
			i++
		}
	}
}

// TestRoutedGetDoesNotAllocate: a get that discards its value costs no
// garbage — no value copy, no closure, no RegionInfo on the heap.
func TestRoutedGetDoesNotAllocate(t *testing.T) {
	get := routedGets(t)
	get(10) // fetch the region list, size the buffer
	if n := testing.AllocsPerRun(500, func() { get(1) }); n != 0 {
		t.Fatalf("a routed get into a reused buffer made %v allocations, want 0", n)
	}
}

func BenchmarkRoutedGet(b *testing.B) {
	get := routedGets(b)
	get(10)
	b.ReportAllocs()
	b.ResetTimer()
	get(b.N)
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
