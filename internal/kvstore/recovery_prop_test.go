package kvstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// scanMap flattens a full scan into a map for multiset comparison (keys
// are unique in a scan, so a map is the multiset).
func scanMap(t *testing.T, tbl *kvstore.Table) map[string]string {
	t.Helper()
	kvs, err := tbl.Scan("", "")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		out[kv.Key] = string(kv.Value)
	}
	return out
}

func diffModels(t *testing.T, got, want map[string]string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d live keys, want %d", label, len(got), len(want))
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: key %q = %q, want %q", label, k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: phantom key %q = %q", label, k, got[k])
		}
	}
}

// mutation is one Put or Delete of a test workload.
type mutation struct {
	key, val string
	del      bool
}

// do performs the mutation on tbl.
func (m mutation) do(tbl *kvstore.Table) error {
	if m.del {
		return tbl.Delete(m.key)
	}
	return tbl.Put(m.key, []byte(m.val))
}

// record applies the mutation to the model a recovered table must match.
func (m mutation) record(model map[string]string) {
	if m.del {
		delete(model, m.key)
	} else {
		model[m.key] = m.val
	}
}

// TestCrashRecoveryAcrossSeeds is the WAL-replay property test: a random
// put/delete/flush workload is "killed" (the handle dropped, no flush) at
// arbitrary points and reopened from the shared filesystem; the
// recovered table's scan must be multiset-identical to an in-memory
// model of every acknowledged mutation.
func TestCrashRecoveryAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99, 1234} {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := sim.NewRand(seed).Derive("kv-crash")
			fs := vfs.NewMemFS()
			cfg := kvstore.Config{
				FlushThresholdBytes: 1 << 10,
				CompactTrigger:      3,
				WALSegmentBytes:     128, // many small segments
			}
			tbl, err := kvstore.Open(fs, "/t", cfg)
			if err != nil {
				t.Fatal(err)
			}
			model := map[string]string{}
			ops := 400 + rng.Intn(400)
			for op := 0; op < ops; op++ {
				k := fmt.Sprintf("row%03d", rng.Intn(60))
				switch {
				case rng.Bernoulli(0.15):
					if err := tbl.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				case rng.Bernoulli(0.03):
					if err := tbl.Flush(); err != nil {
						t.Fatal(err)
					}
				default:
					v := fmt.Sprintf("v%d-%d", seed, op)
					if err := tbl.Put(k, []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				}
				// Crash at arbitrary offsets: drop the handle and reopen.
				if rng.Bernoulli(0.02) {
					tbl, err = kvstore.Open(fs, "/t", cfg)
					if err != nil {
						t.Fatalf("reopen after op %d: %v", op, err)
					}
					diffModels(t, scanMap(t, tbl), model, fmt.Sprintf("after crash at op %d", op))
				}
			}
			tbl, err = kvstore.Open(fs, "/t", cfg)
			if err != nil {
				t.Fatal(err)
			}
			diffModels(t, scanMap(t, tbl), model, "final reopen")
		})
	}
}

// TestTornWALTailRecovery kills the table at arbitrary *byte* offsets of
// the write-ahead log: the final WAL segment is truncated mid-record, as
// a crash in the middle of an append would leave it. Recovery must apply
// exactly the records that survived whole (the CRC rejects a torn tail,
// even one whose base64 still decodes) and drop nothing else — and the
// recovered table must take writes and survive the next crash too.
func TestTornWALTailRecovery(t *testing.T) {
	for _, seed := range []int64{3, 21, 77} {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := sim.NewRand(seed).Derive("kv-torn")
			buildOps := func() []mutation {
				n := 50 + rng.Intn(100)
				out := make([]mutation, n)
				for i := range out {
					o := mutation{key: fmt.Sprintf("k%02d", rng.Intn(25))}
					if rng.Bernoulli(0.2) {
						o.del = true
					} else {
						o.val = fmt.Sprintf("value-%d-%d", seed, i)
					}
					out[i] = o
				}
				return out
			}
			for round := 0; round < 5; round++ {
				ops := buildOps()
				fs := vfs.NewMemFS()
				// Huge flush threshold: everything stays in the WAL.
				cfg := kvstore.Config{FlushThresholdBytes: 1 << 40, WALSegmentBytes: 256}
				tbl, err := kvstore.Open(fs, "/t", cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range ops {
					if o.del {
						err = tbl.Delete(o.key)
					} else {
						err = tbl.Put(o.key, []byte(o.val))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				// Find the WAL segments and truncate the last one at an
				// arbitrary byte offset.
				infos, err := fs.List("/t/wal.d")
				if err != nil {
					t.Fatal(err)
				}
				var segs []string
				for _, fi := range infos {
					segs = append(segs, fi.Path)
				}
				sort.Strings(segs)
				if len(segs) == 0 {
					t.Fatal("workload left no WAL segments")
				}
				last := segs[len(segs)-1]
				data, err := vfs.ReadFile(fs, last)
				if err != nil {
					t.Fatal(err)
				}
				cut := rng.Intn(len(data) + 1)
				if err := fs.Remove(last, false); err != nil {
					t.Fatal(err)
				}
				if cut > 0 {
					if err := vfs.WriteFile(fs, last, data[:cut]); err != nil {
						t.Fatal(err)
					}
				}
				// Records that survived whole: every line of the earlier
				// segments plus the complete lines of the truncated prefix.
				survived := 0
				for _, seg := range segs[:len(segs)-1] {
					d, err := vfs.ReadFile(fs, seg)
					if err != nil {
						t.Fatal(err)
					}
					survived += bytes.Count(d, []byte("\n"))
				}
				survived += bytes.Count(data[:cut], []byte("\n"))
				model := map[string]string{}
				for _, o := range ops[:survived] {
					if o.del {
						delete(model, o.key)
					} else {
						model[o.key] = o.val
					}
				}
				re, err := kvstore.Open(fs, "/t", cfg)
				if err != nil {
					t.Fatalf("round %d: reopen after cut at %d/%d: %v", round, cut, len(data), err)
				}
				label := fmt.Sprintf("round %d cut %d/%d (%d/%d records survive)", round, cut, len(data), survived, len(ops))
				diffModels(t, scanMap(t, re), model, label)
				// Life goes on after the recovery: more writes, another
				// crash. The torn bytes must not be waiting in a segment
				// that is no longer the last one.
				for _, o := range buildOps() {
					if err := o.do(re); err != nil {
						t.Fatal(err)
					}
					o.record(model)
				}
				re, err = kvstore.Open(fs, "/t", cfg)
				if err != nil {
					t.Fatalf("%s: second reopen, after writing to the recovered table: %v", label, err)
				}
				diffModels(t, scanMap(t, re), model, label+", second reopen")
			}
		})
	}
}

// TestScanRangeCursor exercises the bounded iterator: chunked scans with
// a resume cursor must agree with the one-shot Scan at every limit, and
// the cursor must terminate.
func TestScanRangeCursor(t *testing.T) {
	tbl, _ := openMem(t, kvstore.Config{FlushThresholdBytes: 512, CompactTrigger: 3})
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("row%03d", i)
		v := fmt.Sprintf("v%d", i)
		if err := tbl.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Tombstones interleaved across store files and the MemStore.
	for i := 0; i < 200; i += 7 {
		k := fmt.Sprintf("row%03d", i)
		if err := tbl.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	full, err := tbl.Scan("row010", "row150")
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 3, 17, 1000} {
		var got []kvstore.KV
		cur := "row010"
		hops := 0
		for {
			kvs, next, err := tbl.ScanRange(cur, "row150", limit)
			if err != nil {
				t.Fatal(err)
			}
			if limit > 0 && len(kvs) > limit {
				t.Fatalf("limit %d returned %d rows", limit, len(kvs))
			}
			got = append(got, kvs...)
			if next == "" {
				break
			}
			cur = next
			if hops++; hops > 1000 {
				t.Fatal("cursor did not terminate")
			}
		}
		if len(got) != len(full) {
			t.Fatalf("limit %d: %d rows, want %d", limit, len(got), len(full))
		}
		for i := range full {
			if got[i].Key != full[i].Key || !bytes.Equal(got[i].Value, full[i].Value) {
				t.Fatalf("limit %d row %d: %s=%q, want %s=%q",
					limit, i, got[i].Key, got[i].Value, full[i].Key, full[i].Value)
			}
		}
	}
	// The scan respected deletes.
	for _, kv := range full {
		if want[kv.Key] != string(kv.Value) {
			t.Fatalf("scan row %s=%q disagrees with model %q", kv.Key, kv.Value, want[kv.Key])
		}
	}
}

// TestBulkLoadAndMidKey covers the bulk-import path splits use: loaded
// rows are readable, later Puts override them, and MidKey lands on the
// median live key.
func TestBulkLoadAndMidKey(t *testing.T) {
	tbl, fs := openMem(t, kvstore.Config{FlushThresholdBytes: 1 << 40, CompactTrigger: 100})
	var kvs []kvstore.KV
	for i := 0; i < 100; i++ {
		kvs = append(kvs, kvstore.KV{Key: fmt.Sprintf("u%04d", i), Value: []byte(fmt.Sprintf("p%d", i))})
	}
	if err := tbl.BulkLoad(kvs); err != nil {
		t.Fatal(err)
	}
	if tbl.StoreFileCount() != 1 {
		t.Fatalf("bulk load wrote %d store files, want 1", tbl.StoreFileCount())
	}
	got, err := tbl.Get("u0042")
	if err != nil || string(got) != "p42" {
		t.Fatalf("u0042 = %q err=%v", got, err)
	}
	// A Put after the bulk load must win (higher sequence number).
	if err := tbl.Put("u0042", []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if got, _ = tbl.Get("u0042"); string(got) != "newer" {
		t.Fatalf("post-bulk-load put lost: %q", got)
	}
	mid, err := tbl.MidKey()
	if err != nil {
		t.Fatal(err)
	}
	if mid != "u0050" {
		t.Fatalf("MidKey = %q, want u0050", mid)
	}
	// Durability: reopen sees the bulk-loaded file.
	re, err := kvstore.Open(fs, "/hbase/table", kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := re.Len(); n != 100 {
		t.Fatalf("reopened len = %d, want 100", n)
	}
	// Degenerate MidKey: below two live keys there is nothing to split.
	empty, _ := openMemAt(t, "/empty")
	if mid, _ := empty.MidKey(); mid != "" {
		t.Fatalf("empty MidKey = %q", mid)
	}
}

func openMemAt(t *testing.T, root string) (*kvstore.Table, vfs.FileSystem) {
	t.Helper()
	fs := vfs.NewMemFS()
	tbl, err := kvstore.Open(fs, root, kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, fs
}

// TestKVMetricsWired checks the obs wiring: maintenance and hot-path
// counters land in the registry under kv.*.
func TestKVMetricsWired(t *testing.T) {
	reg := obs.NewRegistry()
	fs := vfs.NewMemFS()
	tbl, err := kvstore.Open(fs, "/t", kvstore.Config{
		FlushThresholdBytes: 256, CompactTrigger: 2, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tbl.Put(fmt.Sprintf("key-%04d", i), []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Delete("key-0000")
	if _, err := tbl.Get("key-0001"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get("key-0000"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
	tbl.Scan("", "")
	for name, min := range map[string]int64{
		kvstore.MetricPuts:        200,
		kvstore.MetricDeletes:     1,
		kvstore.MetricGets:        2,
		kvstore.MetricScans:       1,
		kvstore.MetricFlushes:     1,
		kvstore.MetricCompactions: 1,
		kvstore.MetricFlushBytes:  1,
		kvstore.MetricWALAppends:  201,
		kvstore.MetricWALBytes:    201,
	} {
		if got := reg.CounterValue(name); got < min {
			t.Errorf("%s = %d, want >= %d", name, got, min)
		}
	}
	if int64(tbl.Flushes) != reg.CounterValue(kvstore.MetricFlushes) {
		t.Errorf("Flushes field %d != obs counter %d", tbl.Flushes, reg.CounterValue(kvstore.MetricFlushes))
	}
	if int64(tbl.Compactions) != reg.CounterValue(kvstore.MetricCompactions) {
		t.Errorf("Compactions field %d != obs counter %d", tbl.Compactions, reg.CounterValue(kvstore.MetricCompactions))
	}
}
