package hdfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

func newPersistentDFS(t *testing.T, nodes int) (*hdfs.MiniDFS, *vfs.MemFS) {
	t.Helper()
	meta := vfs.NewMemFS()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(nodes, 1))
	d, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{
		Seed:       3,
		Config:     hdfs.Config{BlockSize: 1 << 10, Replication: 2, HeartbeatInterval: time.Second},
		MetadataFS: meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, meta
}

func TestEditLogReplayRebuildsNamespace(t *testing.T) {
	d, _ := newPersistentDFS(t, 4)
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/a/keep.txt", []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, "/a/drop.txt", []byte("drop me")); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/a/drop.txt", false); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/a/keep.txt", "/a/kept.txt"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReplication("/a/kept.txt", 4); err != nil {
		t.Fatal(err)
	}
	if d.Obs.CounterValue("hdfs.nn.editlog_records") == 0 {
		t.Fatal("nothing journaled")
	}
	before := treeString(t, c)

	// Cold start: namespace rebuilt purely from the edit log; replica
	// locations return via block reports.
	if err := d.NN.RestartFromDisk(); err != nil {
		t.Fatal(err)
	}
	if !d.NN.InSafeMode() {
		t.Fatal("cold start should re-enter safe mode")
	}
	d.Engine.Advance(5 * time.Second)
	if d.NN.InSafeMode() {
		t.Fatal("safe mode never exited after block reports")
	}
	if after := treeString(t, c); after != before {
		t.Fatalf("namespace diverged after replay:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	data, err := vfs.ReadFile(c, "/a/kept.txt")
	if err != nil || string(data) != "keep me" {
		t.Fatalf("data after recovery: %q err=%v", data, err)
	}
	fi, _ := c.Stat("/a/kept.txt")
	if fi.Replication != 4 {
		t.Fatalf("setrep lost in replay: %d", fi.Replication)
	}
}

func TestCheckpointTruncatesEditLog(t *testing.T) {
	d, meta := newPersistentDFS(t, 3)
	c := d.Client(0)
	for i := 0; i < 5; i++ {
		if err := vfs.WriteFile(c, fmt.Sprintf("/f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if !vfs.Exists(meta, "/dfs/name/current/edits_0") {
		t.Fatal("edit log missing")
	}
	entries, err := d.NN.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 5 {
		t.Fatalf("checkpoint wrote %d entries, want 5", entries)
	}
	if vfs.Exists(meta, "/dfs/name/current/edits_0") {
		t.Fatal("edit log not truncated by checkpoint")
	}
	if !vfs.Exists(meta, "/dfs/name/current/fsimage_1") || !vfs.Exists(meta, "/dfs/name/current/edits_1") {
		t.Fatal("fsimage or its edit log missing")
	}
	// Post-checkpoint edits land in a fresh log; recovery uses both.
	if err := vfs.WriteFile(c, "/later", []byte("y")); err != nil {
		t.Fatal(err)
	}
	before := treeString(t, c)
	if err := d.NN.RestartFromDisk(); err != nil {
		t.Fatal(err)
	}
	d.Engine.Advance(5 * time.Second)
	if after := treeString(t, c); after != before {
		t.Fatalf("fsimage+edits recovery diverged:\n%s\nvs\n%s", before, after)
	}
}

// TestCheckpointFailureKeepsNamespace fails each mutating call of a
// checkpoint in turn. Whichever call fails, the checkpoint reports the
// injected error, a cold start loads the namespace as it was before the
// checkpoint, and a retried checkpoint succeeds and loads it too.
func TestCheckpointFailureKeepsNamespace(t *testing.T) {
	run := func(failAt int) (calls int) {
		t.Helper()
		meta := &vfstest.FailFS{FileSystem: vfs.NewMemFS()}
		d, err := hdfs.NewMiniDFS(sim.NewEngine(), cluster.NewTopology(cluster.PaperNodeConfig(3, 1)), hdfs.Options{
			Seed: 3, Config: hdfs.Config{BlockSize: 1 << 10, Replication: 2, HeartbeatInterval: time.Second}, MetadataFS: meta,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := d.Client(0)
		steps := []func() error{
			func() error { return vfs.WriteFile(c, "/old/x.txt", []byte("from before the first checkpoint")) },
			func() error { _, err := d.NN.Checkpoint(); return err },
			func() error { return vfs.WriteFile(c, "/a", []byte("renamed after it")) },
			func() error { return c.Rename("/a", "/b") },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		before := treeString(t, c)
		restart := func(when string) {
			t.Helper()
			if err := d.NN.RestartFromDisk(); err != nil {
				t.Fatalf("call %d (%s) failed; cold start %s: %v", failAt, meta.Failed, when, err)
			}
			d.Engine.Advance(5 * time.Second)
			if after := treeString(t, c); after != before {
				t.Fatalf("call %d (%s) failed; cold start %s loaded\n%swant\n%s", failAt, meta.Failed, when, after, before)
			}
		}
		start := meta.Calls
		if failAt > 0 {
			meta.FailAt = start + failAt
		}
		_, err = d.NN.Checkpoint()
		calls = meta.Calls - start
		if failAt == 0 {
			if err != nil {
				t.Fatal(err)
			}
			return calls
		}
		if !errors.Is(err, vfstest.ErrInjected) {
			t.Fatalf("call %d (%s) failed; checkpoint returned %v, want the injected error", failAt, meta.Failed, err)
		}
		restart("after the failed checkpoint")
		if _, err := d.NN.Checkpoint(); err != nil {
			t.Fatalf("call %d (%s) failed; the retried checkpoint: %v", failAt, meta.Failed, err)
		}
		restart("after the retried checkpoint")
		return calls
	}
	n := run(0)
	if n == 0 {
		t.Fatal("a checkpoint made no mutating call")
	}
	for k := 1; k <= n; k++ {
		run(k)
	}
}

func TestRecoveryPropertyRandomOps(t *testing.T) {
	// Property: after any random mutation sequence, RestartFromDisk
	// reproduces the namespace exactly (same paths, sizes, replication).
	for trial := 0; trial < 3; trial++ {
		d, _ := newPersistentDFS(t, 4)
		c := d.Client(0)
		rng := rand.New(rand.NewSource(int64(400 + trial)))
		paths := []string{"/x", "/y", "/d/a", "/d/b", "/d/e/c"}
		for op := 0; op < 120; op++ {
			p := paths[rng.Intn(len(paths))]
			switch rng.Intn(5) {
			case 0, 1:
				_ = vfs.WriteFile(c, p, make([]byte, rng.Intn(4<<10)))
			case 2:
				_ = c.Remove(p, true)
			case 3:
				_ = c.Rename(p, paths[rng.Intn(len(paths))])
			case 4:
				_ = c.SetReplication(p, 1+rng.Intn(3))
			}
			if op == 60 {
				if _, err := d.NN.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := treeString(t, c)
		if err := d.NN.RestartFromDisk(); err != nil {
			t.Fatal(err)
		}
		d.Engine.Advance(5 * time.Second)
		if after := treeString(t, c); after != before {
			t.Fatalf("trial %d: recovery diverged\nbefore:\n%s\nafter:\n%s", trial, before, after)
		}
	}
}

func TestCheckpointWithoutMetaFSFails(t *testing.T) {
	d := newDFS(t, 2, 1, hdfs.Config{})
	if _, err := d.NN.Checkpoint(); err == nil {
		t.Fatal("checkpoint without metadata filesystem succeeded")
	}
	if err := d.NN.RestartFromDisk(); err == nil {
		t.Fatal("recovery without metadata filesystem succeeded")
	}
}

// TestAppendedFileSurvivesFailures is the HDFS half of the vfs Append
// contract: a file grown by appends — part of it checkpointed into the
// fsimage, the rest only in the edit log — keeps its full length through
// the loss of a DataNode and through a NameNode cold start.
func TestAppendedFileSurvivesFailures(t *testing.T) {
	meta := vfs.NewMemFS()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(5, 1))
	d, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{
		Seed: 3,
		Config: hdfs.Config{BlockSize: 1 << 10, Replication: 2,
			HeartbeatInterval: time.Second, HeartbeatExpiry: 5 * time.Second, ReplMonitorInterval: time.Second},
		MetadataFS: meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := d.Client(0)
	var want []byte
	grow := func(n int) {
		t.Helper()
		rec := bytes.Repeat([]byte{byte('a' + len(want)%26)}, n)
		if err := vfs.AppendFile(c, "/hbase/wal/000000", rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec...)
	}
	grow(1500) // created by the append: two blocks
	grow(40)
	if _, err := d.NN.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	grow(2500) // three more blocks, journalled after the checkpoint
	grow(7)
	check := func(when string) {
		t.Helper()
		got, err := vfs.ReadFile(c, "/hbase/wal/000000")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: read %d bytes err=%v, want %d", when, len(got), err, len(want))
		}
		if fi, err := c.Stat("/hbase/wal/000000"); err != nil || fi.Size != int64(len(want)) {
			t.Fatalf("%s: stat %+v err=%v, want size %d", when, fi, err, len(want))
		}
	}
	check("after the appends")
	locs, err := c.BlockLocations("/hbase/wal/000000")
	if err != nil || len(locs) != 7 {
		t.Fatalf("block layout: %d blocks err=%v, want 7 (2+1+3+1: an append never reopens a block)", len(locs), err)
	}

	d.DataNode(locs[len(locs)-1].Nodes[0]).Kill()
	d.Engine.Advance(60 * time.Second)
	rep, err := d.Fsck()
	if err != nil || !rep.Healthy() || rep.UnderReplicated != 0 {
		t.Fatalf("fsck after losing a DataNode: err=%v\n%s", err, rep)
	}
	check("after re-replication")

	if err := d.NN.RestartFromDisk(); err != nil {
		t.Fatal(err)
	}
	d.Engine.Advance(5 * time.Second)
	if d.NN.InSafeMode() {
		t.Fatal("safe mode never exited after the cold start")
	}
	check("after fsimage + edits recovery")
	grow(100)
	check("after appending to the recovered file")
}

// TestFailedAppendKeepsTheFile: an append whose pipeline fails part-way
// gives back the blocks it had already committed and leaves the file as
// it found it — unlike a failed create, which removes the file.
func TestFailedAppendKeepsTheFile(t *testing.T) {
	cfg := cluster.PaperNodeConfig(1, 1)
	cfg.DiskPerNode = 3000
	d, err := hdfs.NewMiniDFS(sim.NewEngine(), cluster.NewTopology(cfg), hdfs.Options{
		Seed: 3, Config: hdfs.Config{BlockSize: 1 << 10, Replication: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/f", bytes.Repeat([]byte("k"), 1024)); err != nil {
		t.Fatal(err)
	}
	// Three more blocks do not fit: the first lands, the second is refused.
	if err := vfs.AppendFile(c, "/f", make([]byte, 3<<10)); err == nil {
		t.Fatal("append past the disk's capacity succeeded")
	}
	got, err := vfs.ReadFile(c, "/f")
	if err != nil || len(got) != 1024 {
		t.Fatalf("after the failed append: read %d bytes err=%v, want the original 1024", len(got), err)
	}
	if fi, _ := c.Stat("/f"); fi.Size != 1024 {
		t.Fatalf("after the failed append: size %d, want 1024", fi.Size)
	}
	if used := d.DataNode(0).UsedBytes(); used != 1024 {
		t.Fatalf("DataNode holds %d bytes, want 1024: the append's committed block was not given back", used)
	}
	if err := vfs.AppendFile(c, "/f", []byte("fits")); err != nil {
		t.Fatal(err)
	}
}

// countingFS counts the bytes written through Create and Append.
type countingFS struct {
	vfs.FileSystem
	written int64
}

type countingWriter struct {
	io.WriteCloser
	fs *countingFS
}

func (c *countingFS) Create(path string) (io.WriteCloser, error) {
	w, err := c.FileSystem.Create(path)
	return &countingWriter{w, c}, err
}

func (c *countingFS) Append(path string) (io.WriteCloser, error) {
	w, err := c.FileSystem.Append(path)
	return &countingWriter{w, c}, err
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.fs.written += int64(len(p))
	return w.WriteCloser.Write(p)
}

// TestEditLogAppendIsLinear: journalling n edits writes the n records and
// nothing else. (When the log was rewritten per edit this was quadratic:
// 2 000 mkdirs wrote 62 MB to keep a 62 KB log.)
func TestEditLogAppendIsLinear(t *testing.T) {
	meta := &countingFS{FileSystem: vfs.NewMemFS()}
	d, err := hdfs.NewMiniDFS(sim.NewEngine(), cluster.NewTopology(cluster.PaperNodeConfig(2, 1)), hdfs.Options{
		Seed: 3, MetadataFS: meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := d.Client(0)
	const edits = 2000
	for i := 0; i < edits; i++ {
		if err := c.Mkdir(fmt.Sprintf("/d%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Obs.CounterValue("hdfs.nn.editlog_records"); got != edits {
		t.Fatalf("journalled %d edits, want %d", got, edits)
	}
	fi, err := meta.Stat("/dfs/name/current/edits_0")
	if err != nil {
		t.Fatal(err)
	}
	if meta.written != fi.Size {
		t.Fatalf("wrote %d bytes to keep a %d-byte edit log of %d records", meta.written, fi.Size, edits)
	}
}
