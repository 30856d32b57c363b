package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/kvstore"
	"repro/internal/regionserver"
	"repro/internal/serial"
	"repro/internal/vfs"
	"repro/internal/yarn"
)

// update rewrites testdata/obs_names.txt instead of comparing against it:
//
//	go test ./internal/core -run TestObsNames -update
var update = flag.Bool("update", false, "rewrite testdata/obs_names.txt")

const obsNamesGolden = "testdata/obs_names.txt"

// TestObsNames pins the name of every metric and span the stack emits, one
// "<kind> <name>" line each: the metrics in Snapshot order, then the
// distinct span names, sorted. One cluster exercises every layer — a
// traced wordcount through YARN, a checkpoint, a serving workload with a
// split and a region-server crash, a DataNode loss that triggers
// re-replication — and one serial job reports into the same registry.
// A name that moves from a constant to its registration line, or back,
// must leave this file as it is.
func TestObsNames(t *testing.T) {
	got := obsNames(t)
	if *update {
		if err := os.WriteFile(obsNamesGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(obsNamesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metric and span names moved; got:\n%s", got)
	}
}

// TestObsNamesDocumented requires every pinned name in the taxonomy of
// docs/OBSERVABILITY.md: in backticks in full, or in backticks without
// its prefix in a section headed `<prefix>.*`.
func TestObsNamesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadFile(obsNamesGolden)
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	prefix := ""
	ticked := regexp.MustCompile("`([^`]+)`")
	heading := regexp.MustCompile("^#+ `([a-z.]+\\.)\\*`")
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") {
			prefix = ""
			if m := heading.FindStringSubmatch(line); m != nil {
				prefix = m[1]
			}
		}
		for _, m := range ticked.FindAllStringSubmatch(line, -1) {
			documented[m[1]] = true
			documented[prefix+m[1]] = true
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(string(names)), "\n") {
		if _, name, _ := strings.Cut(line, " "); !documented[name] {
			t.Errorf("%s is not in docs/OBSERVABILITY.md", line)
		}
	}
}

func obsNames(t *testing.T) []byte {
	t.Helper()
	c, err := core.New(core.Options{
		Nodes: 6, Seed: 11,
		HDFS:       hdfs.Config{BlockSize: 32 << 10},
		MetadataFS: vfs.NewMemFS(),
		YARN:       &yarn.CapacityOptions{},
		Serving: &regionserver.Options{Servers: 3, SplitMaxOps: 100,
			KV: kvstore.Config{FlushThresholdBytes: 4 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Serving.Stop()

	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 300, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DFS.NN.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if err := c.Serving.Master.CreateTable("usertable", nil); err != nil {
		t.Fatal(err)
	}
	ops, err := datagen.YCSB(datagen.YCSBOpts{Mix: "a", Records: 200, Ops: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.Engine.Schedule(c.Engine.Now()+100*time.Millisecond, func() { c.Serving.CrashServerOn(1) })
	res := regionserver.RunWorkload(c.Engine, c.Serving.NewCachedClient(1, 32), "usertable", ops, 8)
	c.Engine.Advance(5 * time.Second)
	if start, end, _ := c.Serving.Master.LastRecovery(); end <= start {
		t.Fatal("the region-server crash was never recovered")
	}
	if c.Obs.CounterValue(regionserver.MetricSplits) == 0 || res.Errors > 0 {
		t.Fatalf("serving workload: %d splits, %d failed ops", c.Obs.CounterValue(regionserver.MetricSplits), res.Errors)
	}

	locs, err := c.FS().BlockLocations("/out/part-r-00000")
	if err != nil || len(locs) == 0 {
		t.Fatalf("output blocks: %v, %v", locs, err)
	}
	c.DFS.DataNode(locs[0].Nodes[0]).Kill()
	c.Engine.Advance(time.Minute)
	if c.Obs.CounterValue(hdfs.MetricNNDataNodesDeclaredDead) == 0 {
		t.Fatal("the killed DataNode was never declared dead")
	}

	local := vfs.NewMemFS()
	if err := vfs.WriteFile(local, "/in/a.txt", []byte("a b a\nc b a\n")); err != nil {
		t.Fatal(err)
	}
	r := &serial.Runner{FS: local, Obs: c.Obs}
	if _, err := r.Run(jobs.WordCount("/in", "/out", false)); err != nil {
		t.Fatal(err)
	}

	snap := c.Obs.Snapshot()
	var b bytes.Buffer
	for _, m := range snap.Counters {
		fmt.Fprintf(&b, "counter %s\n", m.Name)
	}
	for _, m := range snap.Gauges {
		fmt.Fprintf(&b, "gauge %s\n", m.Name)
	}
	for _, m := range snap.Histograms {
		fmt.Fprintf(&b, "histogram %s\n", m.Name)
	}
	spans := map[string]bool{}
	for _, s := range snap.Spans {
		spans[s.Name] = true
	}
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "span %s\n", n)
	}
	return b.Bytes()
}
