package kvstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func openMem(t *testing.T, cfg kvstore.Config) (*kvstore.Table, vfs.FileSystem) {
	t.Helper()
	fs := vfs.NewMemFS()
	tbl, err := kvstore.Open(fs, "/hbase/table", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, fs
}

func TestPutGetDelete(t *testing.T) {
	tbl, _ := openMem(t, kvstore.Config{})
	if err := tbl.Put("row1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get("row1")
	if err != nil || string(got) != "v1" {
		t.Fatalf("get = %q err=%v", got, err)
	}
	if err := tbl.Put("row1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.Get("row1")
	if string(got) != "v2" {
		t.Fatalf("overwrite lost: %q", got)
	}
	if err := tbl.Delete("row1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get("row1"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("deleted key readable: %v", err)
	}
	if _, err := tbl.Get("ghost"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

// TestEmptyKeyRejected: no write path takes the empty key, and a bulk
// load that holds one writes none of its rows.
func TestEmptyKeyRejected(t *testing.T) {
	tbl, _ := openMem(t, kvstore.Config{})
	if err := tbl.Put("", []byte("x")); err == nil {
		t.Fatal("Put: empty key accepted")
	}
	if err := tbl.Delete(""); err == nil {
		t.Fatal("Delete: empty key accepted")
	}
	if err := tbl.BulkLoad([]kvstore.KV{{Key: "b", Value: []byte("1")}, {Key: "", Value: []byte("x")}}); err == nil {
		t.Fatal("BulkLoad: empty key accepted")
	}
	if n := tbl.StoreFileCount(); n != 0 {
		t.Fatalf("a rejected bulk load left %d store files", n)
	}
}

// TestBulkLoadRejectsDuplicateKeys: two rows under one key would both
// come back from a scan, and a get would return whichever the sort put
// first; the load fails before writing anything.
func TestBulkLoadRejectsDuplicateKeys(t *testing.T) {
	tbl, _ := openMem(t, kvstore.Config{})
	kvs := []kvstore.KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("x")}, {Key: "a", Value: []byte("2")}}
	if err := tbl.BulkLoad(kvs); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("BulkLoad with key a twice: err = %v, want one naming \"a\"", err)
	}
	if n := tbl.StoreFileCount(); n != 0 {
		t.Fatalf("a rejected bulk load left %d store files", n)
	}
	if kvs, _ := tbl.Scan("", ""); len(kvs) != 0 {
		t.Fatalf("a rejected bulk load left rows %v", kvs)
	}
}

func TestFlushCreatesStoreFilesAndTruncatesWAL(t *testing.T) {
	tbl, fs := openMem(t, kvstore.Config{FlushThresholdBytes: 1 << 40})
	for i := 0; i < 50; i++ {
		if err := tbl.Put(fmt.Sprintf("k%03d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.StoreFileCount() != 0 {
		t.Fatal("flushed too early")
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if tbl.StoreFileCount() != 1 {
		t.Fatalf("store files = %d", tbl.StoreFileCount())
	}
	if tbl.MemStoreBytes() != 0 {
		t.Fatal("memstore not cleared")
	}
	if vfs.Exists(fs, "/hbase/table/wal") {
		t.Fatal("WAL survived flush")
	}
	// Reads hit the store file now.
	got, err := tbl.Get("k007")
	if err != nil || string(got) != "value" {
		t.Fatalf("get after flush: %q err=%v", got, err)
	}
}

func TestAutoFlushOnThreshold(t *testing.T) {
	tbl, _ := openMem(t, kvstore.Config{FlushThresholdBytes: 256})
	for i := 0; i < 100; i++ {
		if err := tbl.Put(fmt.Sprintf("key-%03d", i), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Flushes == 0 {
		t.Fatal("threshold never triggered a flush")
	}
}

func TestCompactionMergesAndDropsTombstones(t *testing.T) {
	tbl, _ := openMem(t, kvstore.Config{FlushThresholdBytes: 1 << 40, CompactTrigger: 100})
	// Three generations: write, overwrite, delete — flushing between each.
	for i := 0; i < 10; i++ {
		tbl.Put(fmt.Sprintf("k%d", i), []byte("gen1"))
	}
	tbl.Flush()
	for i := 0; i < 5; i++ {
		tbl.Put(fmt.Sprintf("k%d", i), []byte("gen2"))
	}
	tbl.Flush()
	tbl.Delete("k9")
	tbl.Flush()
	if tbl.StoreFileCount() != 3 {
		t.Fatalf("store files = %d, want 3", tbl.StoreFileCount())
	}
	if err := tbl.Compact(); err != nil {
		t.Fatal(err)
	}
	if tbl.StoreFileCount() != 1 {
		t.Fatalf("store files after compact = %d", tbl.StoreFileCount())
	}
	// Newest versions won; tombstone dropped the key.
	if got, _ := tbl.Get("k0"); string(got) != "gen2" {
		t.Fatalf("k0 = %q", got)
	}
	if got, _ := tbl.Get("k7"); string(got) != "gen1" {
		t.Fatalf("k7 = %q", got)
	}
	if _, err := tbl.Get("k9"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatal("tombstoned key resurrected by compaction")
	}
	if kvs, _ := tbl.Scan("", ""); len(kvs) != 9 {
		t.Fatalf("len = %d, want 9", len(kvs))
	}
}

func TestAutoCompactTrigger(t *testing.T) {
	tbl, _ := openMem(t, kvstore.Config{FlushThresholdBytes: 1 << 40, CompactTrigger: 3})
	for gen := 0; gen < 3; gen++ {
		tbl.Put(fmt.Sprintf("gen%d", gen), []byte("x"))
		tbl.Flush()
	}
	if tbl.Compactions == 0 {
		t.Fatal("compaction trigger never fired")
	}
	if tbl.StoreFileCount() != 1 {
		t.Fatalf("store files = %d", tbl.StoreFileCount())
	}
}

func TestScanRange(t *testing.T) {
	tbl, _ := openMem(t, kvstore.Config{FlushThresholdBytes: 1 << 40})
	for _, k := range []string{"apple", "banana", "cherry", "date", "fig"} {
		tbl.Put(k, []byte("fruit:"+k))
	}
	tbl.Flush()
	tbl.Put("elderberry", []byte("fruit:elderberry")) // in MemStore only
	tbl.Delete("cherry")

	kvs, err := tbl.Scan("banana", "fig")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, kv := range kvs {
		keys = append(keys, kv.Key)
	}
	want := []string{"banana", "date", "elderberry"}
	if len(keys) != len(want) {
		t.Fatalf("scan keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scan keys = %v, want %v", keys, want)
		}
	}
	// Unbounded scan includes everything live.
	all, _ := tbl.Scan("", "")
	if len(all) != 5 {
		t.Fatalf("full scan = %d keys", len(all))
	}
}

func TestWALRecovery(t *testing.T) {
	fs := vfs.NewMemFS()
	tbl, err := kvstore.Open(fs, "/t", kvstore.Config{FlushThresholdBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Put("durable", []byte("yes"))
	tbl.Put("mutable", []byte("v1"))
	tbl.Put("mutable", []byte("v2"))
	tbl.Delete("durable")
	// "Crash": reopen from the same filesystem without flushing.
	tbl2, err := kvstore.Open(fs, "/t", kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl2.Get("durable"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatal("delete lost in recovery")
	}
	got, err := tbl2.Get("mutable")
	if err != nil || string(got) != "v2" {
		t.Fatalf("recovered value = %q err=%v", got, err)
	}
	// New writes after recovery use higher sequence numbers.
	tbl2.Put("mutable", []byte("v3"))
	got, _ = tbl2.Get("mutable")
	if string(got) != "v3" {
		t.Fatalf("post-recovery write lost: %q", got)
	}
}

func TestReopenAfterFlushAndMore(t *testing.T) {
	fs := vfs.NewMemFS()
	tbl, _ := kvstore.Open(fs, "/t", kvstore.Config{FlushThresholdBytes: 1 << 40})
	tbl.Put("a", []byte("1"))
	tbl.Flush()
	tbl.Put("b", []byte("2")) // only in WAL

	tbl2, err := kvstore.Open(fs, "/t", kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		got, err := tbl2.Get(k)
		if err != nil || string(got) != want {
			t.Fatalf("%s = %q err=%v", k, got, err)
		}
	}
	// Sequence numbers must not regress: overwrite wins after reopen.
	tbl2.Put("a", []byte("1b"))
	tbl2.Flush()
	got, _ := tbl2.Get("a")
	if string(got) != "1b" {
		t.Fatalf("seq regression: a = %q", got)
	}
}

// TestReopenWithLargeValue: a value of 48 KiB or more encodes to a record
// line over 64 KiB. A table holding one reopens with the row in the WAL
// and again with it in a store file.
func TestReopenWithLargeValue(t *testing.T) {
	big := bytes.Repeat([]byte("v"), 70<<10)
	fs := vfs.NewMemFS()
	tbl, err := kvstore.Open(fs, "/t", kvstore.Config{FlushThresholdBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("big", big); err != nil {
		t.Fatal(err)
	}
	reopen := func(where string) *kvstore.Table {
		t.Helper()
		tbl, err := kvstore.Open(fs, "/t", kvstore.Config{FlushThresholdBytes: 1 << 40})
		if err != nil {
			t.Fatalf("reopen with the row %s: %v", where, err)
		}
		if got, err := tbl.Get("big"); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("reopen with the row %s: got %d bytes err=%v, want %d", where, len(got), err, len(big))
		}
		return tbl
	}
	if err := reopen("in the WAL").Flush(); err != nil {
		t.Fatal(err)
	}
	reopen("in a store file")
}

func TestModelCheck(t *testing.T) {
	// Property: a long random mixture of puts/deletes/flushes/compactions
	// always agrees with a plain map.
	tbl, _ := openMem(t, kvstore.Config{FlushThresholdBytes: 2 << 10, CompactTrigger: 3})
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("row%02d", i)
	}
	for op := 0; op < 2000; op++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0:
			if err := tbl.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case 1:
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		default:
			v := fmt.Sprintf("v%d", op)
			if err := tbl.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}
	for _, k := range keys {
		got, err := tbl.Get(k)
		want, ok := model[k]
		if ok {
			if err != nil || string(got) != want {
				t.Fatalf("%s = %q err=%v, want %q", k, got, err, want)
			}
		} else if !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("%s should be absent, got %q err=%v", k, got, err)
		}
	}
	if kvs, _ := tbl.Scan("", ""); len(kvs) != len(model) {
		t.Fatalf("len = %d, model %d", len(kvs), len(model))
	}
}

func TestTableOnHDFS(t *testing.T) {
	// The lecture's point: the store's files live on HDFS and inherit its
	// replication and fault tolerance.
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(4, 1))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Seed: 3, Config: hdfs.Config{Replication: 3}})
	if err != nil {
		t.Fatal(err)
	}
	client := dfs.Client(hdfs.GatewayNode)
	tbl, err := kvstore.Open(client, "/hbase/usertable", kvstore.Config{FlushThresholdBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tbl.Put(fmt.Sprintf("user%03d", i), []byte("profile")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Lose a DataNode; the table still reads fine from replicas.
	dfs.DataNode(0).Kill()
	eng.Advance(60_000_000_000)
	got, err := tbl.Get("user010")
	if err != nil || string(got) != "profile" {
		t.Fatalf("get after datanode loss: %q err=%v", got, err)
	}
	rep, _ := dfs.Fsck()
	if !rep.Healthy() {
		t.Fatalf("fsck after loss:\n%s", rep)
	}
}
