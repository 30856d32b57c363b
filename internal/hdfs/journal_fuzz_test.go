package hdfs

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// newMetaDFS is a one-DataNode cluster persisting its namespace to meta.
func newMetaDFS(t testing.TB, meta vfs.FileSystem) *MiniDFS {
	d, err := NewMiniDFS(sim.NewEngine(), cluster.NewTopology(cluster.PaperNodeConfig(1, 1)), Options{
		Seed:       3,
		Config:     Config{BlockSize: 1 << 10, Replication: 1, HeartbeatInterval: time.Second},
		MetadataFS: meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// FuzzEditLog holds the NameNode's metadata files — the fsimage and the
// edit log, both JSONL edit records — to three properties: parsing never
// panics; parse∘marshal is the identity on what parses (marshalling the
// parsed records and parsing that gives records that marshal to the same
// bytes); and replaying any image and log through RestartFromDisk never
// panics. When the replay succeeds, the checkpoint of what it built must
// replay too: the fsimage is a compacted edit log.
func FuzzEditLog(f *testing.F) {
	// Seeds: the files journal_test.go's flows leave behind — writes, a
	// delete, a checkpoint, then a rename, a setrep, an append and a mkdir.
	meta := vfs.NewMemFS()
	d := newMetaDFS(f, meta)
	c := d.Client(0)
	steps := []func() error{
		func() error { return vfs.WriteFile(c, "/a/keep.txt", []byte("keep me")) },
		func() error { return vfs.WriteFile(c, "/a/drop.txt", []byte("drop me")) },
		func() error { return c.Remove("/a/drop.txt", false) },
		func() error { _, err := d.NN.Checkpoint(); return err },
		func() error { return c.Rename("/a/keep.txt", "/a/kept.txt") },
		func() error { return c.SetReplication("/a/kept.txt", 2) },
		func() error { return vfs.AppendFile(c, "/a/kept.txt", make([]byte, 1500)) },
		func() error { return c.Mkdir("/empty/dir") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			f.Fatal(err)
		}
	}
	image, err := vfs.ReadFile(meta, metaPath("fsimage", 1))
	if err != nil {
		f.Fatal(err)
	}
	edits, err := vfs.ReadFile(meta, metaPath("edits", 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(image, edits)
	f.Add(image, edits[:len(edits)-7]) // a torn last line
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, image, edits []byte) {
		for _, data := range [][]byte{image, edits} {
			recs, err := history.Parse[editRecord](data)
			if err != nil {
				continue
			}
			once, err := history.Marshal(recs)
			if err != nil {
				t.Fatal(err)
			}
			back, err := history.Parse[editRecord](once)
			if err != nil {
				t.Fatalf("%q parses, its marshalling %q does not: %v", data, once, err)
			}
			if twice, _ := history.Marshal(back); !bytes.Equal(twice, once) {
				t.Fatalf("%q: marshalling is not stable: %q then %q", data, once, twice)
			}
		}

		meta := vfs.NewMemFS()
		if err := vfs.WriteFile(meta, metaPath("fsimage", 1), image); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(meta, metaPath("edits", 1), edits); err != nil {
			t.Fatal(err)
		}
		d := newMetaDFS(t, meta)
		if err := d.NN.RestartFromDisk(); err != nil {
			return
		}
		if _, err := d.NN.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := d.NN.RestartFromDisk(); err != nil {
			t.Fatalf("the checkpoint of a replayed namespace does not replay: %v", err)
		}
	})
}
