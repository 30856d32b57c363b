package kvstore_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/vfs"
)

// putLoop is BenchmarkPut's shape: 1 000 row keys rewritten in turn with
// an 18-byte value, on MemFS, under a flush threshold the live set never
// reaches — so every put is a WAL append and nothing else.
func putLoop(tb testing.TB, cfg kvstore.Config) func(n int) {
	cfg.FlushThresholdBytes = 256 << 10
	tbl, err := kvstore.Open(vfs.NewMemFS(), "/t", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	return func(n int) {
		for ; n > 0; n-- {
			if err := tbl.Put(fmt.Sprintf("row%06d", i%1000), []byte("value payload here")); err != nil {
				tb.Fatal(err)
			}
			i++
		}
	}
}

func BenchmarkPut(b *testing.B) {
	put := putLoop(b, kvstore.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	put(b.N)
}

// BenchmarkPutSegment16K is BenchmarkPut at the WAL segment size the
// serving benchmark (bench/, kv-update) configures.
func BenchmarkPutSegment16K(b *testing.B) {
	put := putLoop(b, kvstore.Config{WALSegmentBytes: 16 << 10})
	b.ReportAllocs()
	b.ResetTimer()
	put(b.N)
}

// TestPutAllocationBudget: a warmed Put costs a handful of small
// allocations — the test's own key, the value copy, the writer inside vfs
// and its buffer, the amortised growth of the segment — and nothing
// proportional to the segment or for cleaning a path that is clean.
// (Rewriting the segment per record cost 55 allocations and 10.7 KB per
// put at the default 8 KiB segment; cleaning the segment path on every
// vfs call cost 4 of the 8.9 allocations left after that.)
func TestPutAllocationBudget(t *testing.T) {
	put := putLoop(t, kvstore.Config{})
	put(2000) // warm: every key in the MemStore, the encoder's buffer grown
	const n = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	put(n)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f allocs and %.0f B per put", allocs, bytes)
	if allocs > 7 || bytes > 640 {
		t.Fatalf("a warmed Put made %.1f allocations and %.0f B, budget 7 and 640", allocs, bytes)
	}
}

func BenchmarkGetAfterFlush(b *testing.B) {
	tbl, err := kvstore.Open(vfs.NewMemFS(), "/t", kvstore.Config{FlushThresholdBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tbl.Put(fmt.Sprintf("row%06d", i), []byte("value"))
	}
	if err := tbl.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Get(fmt.Sprintf("row%06d", i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	tbl, err := kvstore.Open(vfs.NewMemFS(), "/t", kvstore.Config{FlushThresholdBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tbl.Put(fmt.Sprintf("row%06d", i), []byte("value"))
	}
	tbl.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Scan("row000500", "row001500"); err != nil {
			b.Fatal(err)
		}
	}
}
