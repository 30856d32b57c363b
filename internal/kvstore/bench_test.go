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
// reaches — so every put is a WAL append and nothing else. The keys and
// the value are built once, so a put's allocations are the Put's own.
func putLoop(tb testing.TB, cfg kvstore.Config) func(n int) {
	cfg.FlushThresholdBytes = 256 << 10
	tbl, err := kvstore.Open(vfs.NewMemFS(), "/t", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("row%06d", i)
	}
	value := []byte("value payload here")
	i := 0
	return func(n int) {
		for ; n > 0; n-- {
			if err := tbl.Put(keys[i%len(keys)], value); err != nil {
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

// TestPutAllocationBudget: a warmed Put costs two allocations — the value
// copy the MemStore keeps and the writer handle inside vfs — plus the
// amortised growth of the segment, and nothing proportional to the
// segment or for cleaning a path that is clean. (Rewriting the segment
// per record cost 55 allocations and 10.7 KB per put at the default 8 KiB
// segment; cleaning the segment path on every vfs call cost 4 of the 8.9
// allocations left after that.)
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
	if allocs > 2.5 || bytes > 384 {
		t.Fatalf("a warmed Put made %.1f allocations and %.0f B, budget 2.5 and 384", allocs, bytes)
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

// scanTable holds row000000..row001999 in an unflushed MemStore, or in
// one store file when flushed is set.
func scanTable(tb testing.TB, flushed bool) *kvstore.Table {
	tbl, err := kvstore.Open(vfs.NewMemFS(), "/t", kvstore.Config{FlushThresholdBytes: 1 << 40})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tbl.Put(fmt.Sprintf("row%06d", i), []byte("value"))
	}
	if flushed {
		if err := tbl.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkScan reads 1 000 of 2 000 rows, and a 10-row page of them,
// from one store file and from the MemStore.
func BenchmarkScan(b *testing.B) {
	for _, flushed := range []bool{true, false} {
		name := "memstore"
		if flushed {
			name = "flushed"
		}
		b.Run(name, func(b *testing.B) {
			tbl := scanTable(b, flushed)
			for _, limit := range []int{0, 10} {
				b.Run(fmt.Sprintf("limit%d", limit), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := tbl.ScanRange("row000500", "row001500", limit); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// TestShortScanAllocationsFollowFilesNotMemStoreRows: a one-row page of
// an unflushed table seeks into the MemStore, so a hundred times the
// MemStore rows cost the same allocations.
func TestShortScanAllocationsFollowFilesNotMemStoreRows(t *testing.T) {
	perScan := func(rows int) float64 {
		tbl, err := kvstore.Open(vfs.NewMemFS(), "/t", kvstore.Config{FlushThresholdBytes: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			// 7919 is prime to every row count here: each row once, out of order.
			if err := tbl.Put(fmt.Sprintf("row%06d", i*7919%rows), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if kvs, _, err := tbl.ScanRange("row000005", "", 1); err != nil || len(kvs) != 1 {
				t.Fatalf("ScanRange = %v, %v; want one row", kvs, err)
			}
		})
	}
	small, large := perScan(20), perScan(2000)
	t.Logf("%.0f allocations per one-row page of a 20-row MemStore, %.0f of 2000", small, large)
	if large != small {
		t.Fatalf("a one-row page of a 2000-row MemStore made %.0f allocations, of a 20-row one %.0f; want the same", large, small)
	}
}
