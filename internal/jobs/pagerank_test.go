package jobs_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/iofmt"
	"repro/internal/jobcontrol"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/serial"
	"repro/internal/vfs"
)

func runPageRankSerial(t *testing.T, fs vfs.FileSystem, nodes, iters int) map[int]float64 {
	t.Helper()
	runner := &serial.Runner{FS: fs}
	ctl := jobcontrol.New()
	ctl.Chain(jobs.PageRankPipeline("/graph.txt", "/work", "/out", nodes, iters, 0.85)...)
	if err := ctl.Run(func(j *mapreduce.Job) error {
		_, err := runner.Run(j)
		return err
	}, fs); err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadOutput(fs, "/out")
	if err != nil {
		t.Fatal(err)
	}
	return jobs.ParsePageRanks(out)
}

func TestPageRankMatchesPowerIteration(t *testing.T) {
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Graph(fs, "/graph.txt", datagen.GraphOpts{Nodes: 120, AvgEdges: 5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 8
	got := runPageRankSerial(t, fs, truth.Nodes, iters)
	want := truth.PageRank(iters, 0.85)
	if len(got) != truth.Nodes {
		t.Fatalf("output has %d nodes, want %d", len(got), truth.Nodes)
	}
	for v := 0; v < truth.Nodes; v++ {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %.12g, reference %.12g", v, got[v], want[v])
		}
	}
}

func TestPageRankMassConserved(t *testing.T) {
	// Property: with no dangling nodes, total rank stays 1 after every
	// iteration count.
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Graph(fs, "/graph.txt", datagen.GraphOpts{Nodes: 60, AvgEdges: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	got := runPageRankSerial(t, fs, truth.Nodes, 5)
	var total float64
	for _, r := range got {
		total += r
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("rank mass = %.12f, want 1", total)
	}
}

func TestPageRankZipfHeadRanksHighest(t *testing.T) {
	// The generator skews in-degree toward low node IDs; node 0 should be
	// at or near the top of the ranking.
	fs := vfs.NewMemFS()
	truth, _, err := datagen.Graph(fs, "/graph.txt", datagen.GraphOpts{Nodes: 200, AvgEdges: 5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	got := runPageRankSerial(t, fs, truth.Nodes, 10)
	better := 0
	for v, r := range got {
		if v != 0 && r > got[0] {
			better++
		}
	}
	if better > 5 {
		t.Fatalf("node 0 outranked by %d nodes; in-degree skew not reflected", better)
	}
}

func TestPageRankOnClusterMatchesSerial(t *testing.T) {
	const nodes, iters = 80, 4
	// Serial.
	lfs := vfs.NewMemFS()
	if _, _, err := datagen.Graph(lfs, "/graph.txt", datagen.GraphOpts{Nodes: nodes, AvgEdges: 4, Seed: 41}); err != nil {
		t.Fatal(err)
	}
	serialRanks := runPageRankSerial(t, lfs, nodes, iters)

	// Distributed.
	c, err := core.New(core.Options{Nodes: 4, Seed: 2, HDFS: hdfs.Config{BlockSize: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Graph(c.FS(), "/graph.txt", datagen.GraphOpts{Nodes: nodes, AvgEdges: 4, Seed: 41}); err != nil {
		t.Fatal(err)
	}
	ctl := jobcontrol.New()
	ctl.Chain(jobs.PageRankPipeline("/graph.txt", "/work", "/out", nodes, iters, 0.85)...)
	if err := ctl.Run(func(j *mapreduce.Job) error {
		_, err := c.Run(j)
		return err
	}, c.FS()); err != nil {
		t.Fatal(err)
	}
	out, err := c.Output("/out")
	if err != nil {
		t.Fatal(err)
	}
	clusterRanks := jobs.ParsePageRanks(out)
	for v := 0; v < nodes; v++ {
		if clusterRanks[v] != serialRanks[v] {
			t.Fatalf("rank[%d]: cluster %.17g vs serial %.17g", v, clusterRanks[v], serialRanks[v])
		}
	}
}

func TestPageRankSeqIntermediatesMatchText(t *testing.T) {
	const nodes, iters = 80, 4
	lfs := vfs.NewMemFS()
	if _, _, err := datagen.Graph(lfs, "/graph.txt", datagen.GraphOpts{Nodes: nodes, AvgEdges: 4, Seed: 41}); err != nil {
		t.Fatal(err)
	}
	textRanks := runPageRankSerial(t, lfs, nodes, iters)

	// Same chain, but iterations hand off block-compressed SequenceFiles.
	// Pass nil to ctl.Run so the intermediates survive for inspection.
	sfs := vfs.NewMemFS()
	if _, _, err := datagen.Graph(sfs, "/graph.txt", datagen.GraphOpts{Nodes: nodes, AvgEdges: 4, Seed: 41}); err != nil {
		t.Fatal(err)
	}
	runner := &serial.Runner{FS: sfs}
	ctl := jobcontrol.New()
	ctl.Chain(jobs.PageRankPipelineSeq("/graph.txt", "/work", "/out", nodes, iters, 0.85, "gzip")...)
	if err := ctl.Run(func(j *mapreduce.Job) error {
		_, err := runner.Run(j)
		return err
	}, nil); err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadOutput(sfs, "/out")
	if err != nil {
		t.Fatal(err)
	}
	seqRanks := jobs.ParsePageRanks(out)
	for v := 0; v < nodes; v++ {
		if seqRanks[v] != textRanks[v] {
			t.Fatalf("rank[%d]: seq chain %.17g vs text chain %.17g", v, seqRanks[v], textRanks[v])
		}
	}

	// The handoff really was a SequenceFile: .seq part names carrying the
	// container magic.
	infos, err := sfs.List("/work/iter-000")
	if err != nil {
		t.Fatal(err)
	}
	seqParts := 0
	for _, fi := range infos {
		if fi.IsDir || fi.Name() == "_SUCCESS" {
			continue
		}
		if !strings.HasSuffix(fi.Path, ".seq") {
			t.Fatalf("intermediate part %s is not a .seq file", fi.Path)
		}
		data, err := vfs.ReadFile(sfs, fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), iofmt.SeqMagic) {
			t.Fatalf("intermediate part %s missing SequenceFile magic", fi.Path)
		}
		seqParts++
	}
	if seqParts == 0 {
		t.Fatal("no intermediate parts found under /work/iter-000")
	}

	// And the cluster runtime reads the same seq handoffs to the same
	// ranks, bit for bit.
	c, err := core.New(core.Options{Nodes: 4, Seed: 2, HDFS: hdfs.Config{BlockSize: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Graph(c.FS(), "/graph.txt", datagen.GraphOpts{Nodes: nodes, AvgEdges: 4, Seed: 41}); err != nil {
		t.Fatal(err)
	}
	dctl := jobcontrol.New()
	dctl.Chain(jobs.PageRankPipelineSeq("/graph.txt", "/work", "/out", nodes, iters, 0.85, "gzip")...)
	if err := dctl.Run(func(j *mapreduce.Job) error {
		_, err := c.Run(j)
		return err
	}, c.FS()); err != nil {
		t.Fatal(err)
	}
	cout, err := c.Output("/out")
	if err != nil {
		t.Fatal(err)
	}
	clusterRanks := jobs.ParsePageRanks(cout)
	for v := 0; v < nodes; v++ {
		if clusterRanks[v] != textRanks[v] {
			t.Fatalf("rank[%d]: cluster seq chain %.17g vs text chain %.17g", v, clusterRanks[v], textRanks[v])
		}
	}
}

func TestGraphTruthDeterministic(t *testing.T) {
	a := vfs.NewMemFS()
	b := vfs.NewMemFS()
	ta, _, err := datagen.Graph(a, "/g", datagen.GraphOpts{Nodes: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := datagen.Graph(b, "/g", datagen.GraphOpts{Nodes: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	da, _ := vfs.ReadFile(a, "/g")
	db, _ := vfs.ReadFile(b, "/g")
	if string(da) != string(db) {
		t.Fatal("graph files differ for same seed")
	}
	ra := ta.PageRank(5, 0.85)
	rb := tb.PageRank(5, 0.85)
	for v := range ra {
		if ra[v] != rb[v] {
			t.Fatal("reference ranks differ for same seed")
		}
	}
}
