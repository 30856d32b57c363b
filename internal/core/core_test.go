package core_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/iofmt"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/vfs"
)

func TestQuickstartFlow(t *testing.T) {
	c, err := core.New(core.Options{Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	truth, _, err := datagen.Text(c.FS(), "/user/student/input/corpus.txt", datagen.TextOpts{Lines: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(jobs.WordCount("/user/student/input", "/user/student/out", true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatal("job failed")
	}
	out, err := c.Output("/user/student/out")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "the\t") {
		t.Fatalf("output missing 'the':\n%.300s", out)
	}
	_ = truth
}

// TestOutputReadsBackAsText runs one wordcount per output codec, and once
// as a SequenceFile, and checks that c.Output hands back exactly the text
// the plain-text job wrote: a student compares outputs, not containers.
func TestOutputReadsBackAsText(t *testing.T) {
	run := func(codec, format string) string {
		t.Helper()
		c, err := core.New(core.Options{Nodes: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 200, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		job := jobs.WordCount("/in", "/out", true)
		job.NumReducers = 2
		job.OutputCodec, job.OutputFormat = codec, format
		if _, err := c.Run(job); err != nil {
			t.Fatal(err)
		}
		part := vfs.Join("/out", job.OutputPartName(0))
		if !vfs.Exists(c.FS(), part) {
			t.Fatalf("codec %q format %q: no part %s", codec, format, part)
		}
		out, err := c.Output("/out")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run("", mapreduce.OutputFormatText)
	if !strings.Contains(want, "the\t") {
		t.Fatalf("text output missing 'the':\n%.300s", want)
	}
	for _, codec := range iofmt.CodecNames() {
		if got := run(codec, mapreduce.OutputFormatText); got != want {
			t.Errorf("codec %s: Output gave %d bytes, text job %d", codec, len(got), len(want))
		}
	}
	if got := run("", mapreduce.OutputFormatSeq); got != want {
		t.Errorf("seq: Output gave %d bytes, text job %d", len(got), len(want))
	}
}

func TestShellIntegration(t *testing.T) {
	c, err := core.New(core.Options{Nodes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	local := vfs.NewMemFS()
	if err := vfs.WriteFile(local, "/data.txt", []byte("x y z\n")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sh := c.Shell(local, &buf)
	if err := sh.RunScript("-mkdir /user\n-put /data.txt /user/data.txt\n-fsck /"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "is HEALTHY") {
		t.Fatalf("shell transcript:\n%s", buf.String())
	}
}

func TestRenderTopologyShowsComponents(t *testing.T) {
	c, err := core.New(core.Options{Nodes: 4, Seed: 5, HDFS: coreHDFSSmallBlocks()})
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c.FS(), "/data/f.txt", make([]byte, 3000)); err != nil {
		t.Fatal(err)
	}
	top := c.RenderTopology()
	for _, want := range []string{
		"[NameNode]", "[JobTracker]",
		"f.txt (3000 bytes, 3 block(s)",
		"DataNode[up] TaskTracker[up]",
		"blk_", "node000",
	} {
		if !strings.Contains(top, want) {
			t.Fatalf("topology missing %q:\n%s", want, top)
		}
	}
}

func TestDefaultsMatchPaperCluster(t *testing.T) {
	c, err := core.New(core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Topology.Len() != 8 {
		t.Fatalf("default nodes = %d", c.Topology.Len())
	}
	n := c.Topology.Node(0)
	if n.Cores != 16 || n.RAMBytes != 64<<30 || n.DiskBytes != 850<<30 {
		t.Fatalf("node resources: %+v", n)
	}
	if c.DFS.NN.Config().Replication != 3 {
		t.Fatalf("default replication = %d", c.DFS.NN.Config().Replication)
	}
}

func coreHDFSSmallBlocks() hdfs.Config { return hdfs.Config{BlockSize: 1024} }

func TestMetadataPersistenceThroughFacade(t *testing.T) {
	meta := vfs.NewMemFS()
	c, err := core.New(core.Options{Nodes: 4, Seed: 9, MetadataFS: meta})
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c.FS(), "/data/f.txt", []byte("persist me")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DFS.NN.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !vfs.Exists(meta, "/dfs/name/current/fsimage") {
		t.Fatal("fsimage not written through the facade")
	}
}
