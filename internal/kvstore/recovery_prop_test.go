package kvstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
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
	if kvs, _ := re.Scan("", ""); len(kvs) != 100 {
		t.Fatalf("reopened len = %d, want 100", len(kvs))
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

// modelTable is one live table of TestLifecycleAgainstModel: the rows
// [lo, hi) of a 200-row key space, by row number.
type modelTable struct {
	root   string
	lo, hi int
	tbl    *kvstore.Table
	// daughter is set for a table opened by Reference; compacted once a
	// compaction has rewritten its references.
	daughter, compacted bool
}

const modelRows = 200

func modelKey(i int) string { return fmt.Sprintf("row%03d", i) }

// bound renders a row number as a range bound: both ends of the key space
// are the open bound "".
func bound(i int) string {
	if i == 0 || i == modelRows {
		return ""
	}
	return modelKey(i)
}

// TestLifecycleAgainstModel is the model-based test of everything a
// region's table goes through: a random run of put / delete / flush /
// compact / split / merge / reopen over a growing and shrinking set of
// tables that tile one key space, checked after every structural step
// against a plain map. Splits and merges go through Reference, so
// daughters serve their parents' store files; a retired parent's
// directory is removed — as the region master does — as soon as no live
// table's References names it, so a reference the table forgot to report
// shows up as a reopen that cannot find its file. Reopen is the crash: it
// happens to daughters while they still hold markers and after their
// first compaction dropped them.
func TestLifecycleAgainstModel(t *testing.T) {
	reopenedHolding, reopenedAfterDrop, splits, merges := 0, 0, 0, 0
	for _, seed := range []int64{1, 7, 42, 99, 1234} {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := sim.NewRand(seed).Derive("kv-lifecycle")
			// The bounded scans draw from their own stream, so the op
			// sequence does not depend on them.
			scanRng := sim.NewRand(seed).Derive("kv-lifecycle-scan")
			fs := vfs.NewMemFS()
			cfg := kvstore.Config{FlushThresholdBytes: 768, CompactTrigger: 4, WALSegmentBytes: 256}
			model := map[string]string{}
			nextRoot := 0
			newRoot := func() string { nextRoot++; return fmt.Sprintf("/tables/t%04d", nextRoot) }
			first, err := kvstore.Open(fs, newRoot(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			tables := []*modelTable{{root: "/tables/t0001", lo: 0, hi: modelRows, tbl: first}} // sorted by lo
			var retired []string

			check := func(tb *modelTable, label string) {
				t.Helper()
				want := map[string]string{}
				for i := tb.lo; i < tb.hi; i++ {
					if v, ok := model[modelKey(i)]; ok {
						want[modelKey(i)] = v
					}
				}
				diffModels(t, scanMap(t, tb.tbl), want, fmt.Sprintf("%s, %s [%d,%d)", label, tb.root, tb.lo, tb.hi))
				k := modelKey(tb.lo + rng.Intn(tb.hi-tb.lo))
				got, err := tb.tbl.Get(k)
				if v, ok := model[k]; ok && (err != nil || string(got) != v) {
					t.Errorf("%s: Get(%s) = %q, %v; want %q", label, k, got, err, v)
				} else if !ok && !errors.Is(err, kvstore.ErrNotFound) {
					t.Errorf("%s: Get(%s) = %q, %v; want ErrNotFound", label, k, got, err)
				}
				// A bounded scan of a random [lo, hi), paged through its
				// resume cursor, yields the model's rows in order.
				lo := tb.lo + scanRng.Intn(tb.hi-tb.lo)
				hi := lo + 1 + scanRng.Intn(tb.hi-lo)
				limit := scanRng.Intn(5)
				var wantRows, gotRows []string
				for i := lo; i < hi; i++ {
					if v, ok := model[modelKey(i)]; ok {
						wantRows = append(wantRows, modelKey(i)+"="+v)
					}
				}
				for cursor, pages := bound(lo), 0; ; pages++ {
					if pages > modelRows {
						t.Fatalf("%s: ScanRange [%d,%d) limit %d did not end after %d pages", label, lo, hi, limit, pages)
					}
					kvs, next, err := tb.tbl.ScanRange(cursor, bound(hi), limit)
					if err != nil {
						t.Fatal(err)
					}
					if limit > 0 && len(kvs) > limit {
						t.Errorf("%s: ScanRange page of %d rows, limit %d", label, len(kvs), limit)
					}
					for _, kv := range kvs {
						gotRows = append(gotRows, kv.Key+"="+string(kv.Value))
					}
					if next == "" {
						break
					}
					cursor = next
				}
				if !slices.Equal(gotRows, wantRows) {
					t.Errorf("%s: ScanRange [%d,%d) limit %d = %v; want %v", label, lo, hi, limit, gotRows, wantRows)
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			// sweep removes every retired directory no live table reads.
			sweep := func() {
				inUse := map[string]bool{}
				for _, tb := range tables {
					refs := tb.tbl.References()
					if tb.compacted && len(refs) > 0 {
						t.Fatalf("%s compacted and still references %v", tb.root, refs)
					}
					for _, root := range refs {
						inUse[root] = true
					}
				}
				keep := retired[:0]
				for _, root := range retired {
					if inUse[root] {
						keep = append(keep, root)
					} else if err := fs.Remove(root, true); err != nil {
						t.Fatal(err)
					}
				}
				retired = keep
			}
			reference := func(lo, hi int, sources ...*modelTable) *modelTable {
				tb := &modelTable{root: newRoot(), lo: lo, hi: hi, daughter: true}
				var srcs []*kvstore.Table
				for _, s := range sources {
					if err := s.tbl.Flush(); err != nil {
						t.Fatal(err)
					}
					srcs = append(srcs, s.tbl)
					retired = append(retired, s.root)
				}
				var err error
				if tb.tbl, err = kvstore.Reference(tb.root, bound(lo), bound(hi), srcs...); err != nil {
					t.Fatal(err)
				}
				return tb
			}

			for op := 0; op < 2500; op++ {
				at := rng.Intn(len(tables))
				tb := tables[at]
				before := tb.tbl.Compactions
				k := modelKey(tb.lo + rng.Intn(tb.hi-tb.lo))
				switch p := rng.Float64(); {
				case p < 0.62:
					v := fmt.Sprintf("v%d-%d-%s", seed, op, k)
					if err := tb.tbl.Put(k, []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case p < 0.78:
					if err := tb.tbl.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				case p < 0.82:
					if err := tb.tbl.Flush(); err != nil {
						t.Fatal(err)
					}
				case p < 0.84:
					if err := tb.tbl.Compact(); err != nil {
						t.Fatal(err)
					}
					check(tb, fmt.Sprintf("op %d, after compaction", op))
				case p < 0.89: // split at the median live key
					if err := tb.tbl.Flush(); err != nil {
						t.Fatal(err)
					}
					mid, err := tb.tbl.MidKey()
					if err != nil {
						t.Fatal(err)
					}
					if mid == "" {
						continue
					}
					var m int
					fmt.Sscanf(mid, "row%d", &m)
					if m <= tb.lo || m >= tb.hi {
						t.Fatalf("MidKey %q outside (%d, %d)", mid, tb.lo, tb.hi)
					}
					low, high := reference(tb.lo, m, tb), reference(m, tb.hi, tb)
					retired = retired[:len(retired)-1] // the parent was listed twice
					// The daughters' sizes are the parent's, shared out by
					// rows and rounded down once per file and daughter.
					size, slack := tb.tbl.SizeBytes(), int64(2*tb.tbl.StoreFileCount())
					if got := low.tbl.SizeBytes() + high.tbl.SizeBytes(); got > size || got < size-slack {
						t.Fatalf("op %d: daughters of %s hold %d bytes, the parent %d", op, tb.root, got, size)
					}
					tables = append(tables[:at], append([]*modelTable{low, high}, tables[at+1:]...)...)
					check(low, fmt.Sprintf("op %d, low daughter of %s", op, tb.root))
					check(high, fmt.Sprintf("op %d, high daughter of %s", op, tb.root))
					splits++
				case p < 0.93: // merge with the right-hand neighbour
					if at+1 == len(tables) {
						continue
					}
					right := tables[at+1]
					merged := reference(tb.lo, right.hi, tb, right)
					tables = append(tables[:at], append([]*modelTable{merged}, tables[at+2:]...)...)
					check(merged, fmt.Sprintf("op %d, merge of %s and %s", op, tb.root, right.root))
					merges++
				default: // crash: drop the handle, reopen from the filesystem
					size, refs := tb.tbl.SizeBytes(), tb.tbl.References()
					re, err := kvstore.Open(fs, tb.root, cfg)
					if err != nil {
						t.Fatalf("op %d: reopen %s (references %v): %v", op, tb.root, refs, err)
					}
					tb.tbl = re
					check(tb, fmt.Sprintf("op %d, after reopen", op))
					if re.SizeBytes() != size || fmt.Sprint(re.References()) != fmt.Sprint(refs) {
						t.Fatalf("op %d: %s reopened with %d bytes and references %v, had %d and %v",
							op, tb.root, re.SizeBytes(), re.References(), size, refs)
					}
					switch {
					case len(refs) > 0:
						reopenedHolding++
					case tb.daughter && tb.compacted:
						reopenedAfterDrop++
					}
					before = 0
				}
				if tb.tbl.Compactions > before {
					tb.compacted = true
				}
				sweep()
			}

			// Every table still reads what the model holds, from a cold
			// start; and once all of them have compacted, the filesystem
			// holds their directories and nothing else.
			for _, tb := range tables {
				re, err := kvstore.Open(fs, tb.root, cfg)
				if err != nil {
					t.Fatalf("final reopen of %s: %v", tb.root, err)
				}
				tb.tbl = re
				check(tb, "final reopen")
				if err := re.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := re.Compact(); err != nil {
					t.Fatal(err)
				}
				tb.compacted = true
				check(tb, "final compaction")
			}
			sweep()
			infos, err := fs.List("/tables")
			if err != nil {
				t.Fatal(err)
			}
			if len(retired) != 0 || len(infos) != len(tables) {
				t.Fatalf("%d live tables, %d directories, still retired: %v", len(tables), len(infos), retired)
			}
			for _, tb := range tables {
				files, err := fs.List(tb.root + "/hfiles")
				if err != nil {
					t.Fatal(err)
				}
				if len(files) > 1 || (len(files) == 1 && strings.HasSuffix(files[0].Path, ".ref")) {
					t.Fatalf("%s holds %v after its final compaction", tb.root, files)
				}
			}
		})
	}
	if reopenedHolding < 5 || reopenedAfterDrop < 5 || splits < 20 || merges < 20 {
		t.Errorf("the runs reopened %d daughters holding references and %d after they dropped them, over %d splits and %d merges",
			reopenedHolding, reopenedAfterDrop, splits, merges)
	}
}
