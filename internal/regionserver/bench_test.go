package regionserver

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/sim"
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
	c := newClusterOn(tb, eng, 4, Options{Obs: reg, SplitMaxOps: 1 << 30, SplitMaxBytes: 1 << 30})
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
