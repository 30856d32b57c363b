package kvstore_test

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// TestFailedAppendLosesAtMostItsRecord stands a storage fault on every
// mutating filesystem call of a 200-op run in turn. The mutation in
// flight returns the error, and reopening on the filesystem underneath
// yields exactly the acknowledged mutations — plus the one in flight when
// its WAL append had already completed and the fault hit the flush
// behind it. Nothing acknowledged earlier is ever lost: a log that is
// appended to has no moment at which its older records are not on disk.
func TestFailedAppendLosesAtMostItsRecord(t *testing.T) {
	// Small segments and a small MemStore: the run rolls the WAL a dozen
	// times and flushes a few. Compaction stays out of it — it removes
	// its inputs before it writes their merge, which is the commit-path
	// sweep's business (ROADMAP item 1), not the log's.
	cfg := kvstore.Config{FlushThresholdBytes: 512, WALSegmentBytes: 256, CompactTrigger: 1 << 20}
	rng := sim.NewRand(11).Derive("kv-failed-append")
	ops := make([]mutation, 200)
	for i := range ops {
		ops[i] = mutation{key: fmt.Sprintf("row%03d", rng.Intn(120)), val: fmt.Sprintf("value-%03d", i), del: rng.Bernoulli(0.15)}
	}
	// run opens a table on ffs, arms the k-th mutating call from there on
	// (0: none) and drives the ops until one fails; it returns the model
	// of the acknowledged ones and the op in flight.
	openCalls := 0 // the mutating calls of Open on an empty filesystem
	run := func(ffs *vfstest.FailFS, k int) (map[string]string, *mutation) {
		tbl, err := kvstore.Open(ffs, "/t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		openCalls = ffs.Calls
		if k > 0 {
			ffs.FailAt = openCalls + k
		}
		model := map[string]string{}
		for i := range ops {
			o := ops[i]
			if err := o.do(tbl); err != nil {
				if !errors.Is(err, vfstest.ErrInjected) {
					t.Fatalf("fault %d (%s): op %d returned %v, want the injected error", k, ffs.Failed, i, err)
				}
				return model, &o
			}
			if ffs.Failed != "" {
				t.Fatalf("fault %d (%s) fired inside op %d, which returned nil", ffs.FailAt, ffs.Failed, i)
			}
			o.record(model)
		}
		return model, nil
	}

	dry := &vfstest.FailFS{FileSystem: vfs.NewMemFS()}
	run(dry, 0)
	calls := dry.Calls - openCalls
	if calls < 3*len(ops) {
		t.Fatalf("dry run made %d mutating calls for %d ops", calls, len(ops))
	}
	sawFlushFault := false
	for k := 1; k <= calls; k++ {
		mem := vfs.NewMemFS()
		ffs := &vfstest.FailFS{FileSystem: mem}
		model, inFlight := run(ffs, k)
		if inFlight == nil {
			t.Fatalf("fault %d of %d never fired", k, calls)
		}
		// A fault outside the WAL append (writing the store file, removing
		// the flushed segments) finds the record already logged.
		inAppend := strings.Contains(ffs.Failed, "/wal.d/") && !strings.HasPrefix(ffs.Failed, "remove ")
		if !inAppend {
			inFlight.record(model)
			sawFlushFault = true
		}
		re, err := kvstore.Open(mem, "/t", cfg)
		if err != nil {
			t.Fatalf("fault %d (%s): reopen: %v", k, ffs.Failed, err)
		}
		diffModels(t, scanMap(t, re), model, fmt.Sprintf("fault %d (%s)", k, ffs.Failed))
		if t.Failed() {
			t.FailNow()
		}
	}
	if !sawFlushFault {
		t.Fatal("no fault landed in a flush: the run is too small to cover the roll and truncate paths")
	}
}

// TestFailedEditAppendReachesTheClient puts the same wrapper under the
// NameNode's metadata directory: whichever call of whichever edit-log
// append fails, the namespace operation that needed it returns the error,
// and a cold start loads every edit journalled before it.
func TestFailedEditAppendReachesTheClient(t *testing.T) {
	// One journalled edit per step, so "every earlier edit" is exactly the
	// tree as it stood before the failing step.
	steps := []func(c *hdfs.Client) error{
		func(c *hdfs.Client) error { return c.Mkdir("/a") },
		func(c *hdfs.Client) error { return writeVia(c.Create, "/a/one", "first") },
		func(c *hdfs.Client) error { return writeVia(c.Append, "/a/one", " and more") },
		func(c *hdfs.Client) error { return c.Rename("/a/one", "/a/uno") },
		func(c *hdfs.Client) error { return c.SetReplication("/a/uno", 2) },
		func(c *hdfs.Client) error { return writeVia(c.Create, "/a/two", "second") },
		func(c *hdfs.Client) error { return c.Remove("/a/two", false) },
		func(c *hdfs.Client) error { return writeVia(c.Append, "/a/log", "created by append") },
	}
	newDFS := func(meta vfs.FileSystem) (*hdfs.MiniDFS, *sim.Engine) {
		eng := sim.NewEngine()
		d, err := hdfs.NewMiniDFS(eng, cluster.NewTopology(cluster.PaperNodeConfig(3, 1)), hdfs.Options{
			Seed: 9, Config: hdfs.Config{Replication: 3, HeartbeatInterval: time.Second}, MetadataFS: meta,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d, eng
	}
	// A dry run tells which calls belong to which step: AppendFile is
	// Append, Write, Close, and the first one also makes the directory.
	dry := &vfstest.FailFS{FileSystem: vfs.NewMemFS()}
	dryDFS, _ := newDFS(dry)
	var lastCall []int // of each step
	for i, step := range steps {
		if err := step(dryDFS.Client(0)); err != nil {
			t.Fatalf("dry run, step %d: %v", i, err)
		}
		lastCall = append(lastCall, dry.Calls)
	}
	for k := 1; k <= dry.Calls; k++ {
		meta := &vfstest.FailFS{FileSystem: vfs.NewMemFS(), FailAt: k}
		d, eng := newDFS(meta)
		c := d.Client(0)
		before, failedStep := "", -1
		for i, step := range steps {
			before = tree(t, c)
			if err := step(c); err != nil {
				if !errors.Is(err, vfstest.ErrInjected) {
					t.Fatalf("fault %d (%s): step %d returned %v, want the injected error", k, meta.Failed, i, err)
				}
				failedStep = i
				break
			}
			if meta.Failed != "" {
				t.Fatalf("fault %d (%s) fired inside step %d, which returned nil", k, meta.Failed, i)
			}
		}
		if want := sort.SearchInts(lastCall, k); failedStep != want {
			t.Fatalf("fault %d (%s): step %d failed, want step %d", k, meta.Failed, failedStep, want)
		}
		if err := d.NN.RestartFromDisk(); err != nil {
			t.Fatalf("fault %d (%s): cold start: %v", k, meta.Failed, err)
		}
		eng.Advance(5 * time.Second)
		if after := tree(t, c); after != before {
			t.Fatalf("fault %d (%s) in step %d: cold start loaded\n%swant the tree before that step\n%s", k, meta.Failed, failedStep, after, before)
		}
	}
}

// writeVia writes data through one writer from open: exactly one
// journalled edit, at Close (vfs.WriteFile would journal a mkdir first).
func writeVia(open func(string) (io.WriteCloser, error), path, data string) error {
	w, err := open(path)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, data); err != nil {
		return err
	}
	return w.Close()
}

// tree renders every path under / with its size and replication.
func tree(t *testing.T, fs vfs.FileSystem) string {
	t.Helper()
	var b strings.Builder
	var walk func(dir string)
	walk = func(dir string) {
		infos, err := fs.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			if fi.IsDir {
				fmt.Fprintf(&b, "%s/\n", fi.Path)
				walk(fi.Path)
			} else {
				fmt.Fprintf(&b, "%s %d bytes x%d\n", fi.Path, fi.Size, fi.Replication)
			}
		}
	}
	walk("/")
	return b.String()
}
