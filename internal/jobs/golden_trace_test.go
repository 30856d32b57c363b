package jobs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// update rewrites the golden obs snapshots under testdata/ instead of
// comparing against them:
//
//	go test ./internal/jobs -run TestGoldenTrace -update
var update = flag.Bool("update", false, "rewrite golden obs trace snapshots")

// Golden-trace tests pin the entire observable behaviour of a canonical
// run — every counter, gauge, histogram bucket and span the stack emits —
// as a byte-exact JSON artifact. Because the simulation is deterministic,
// any diff is a real behaviour change (scheduling order, placement, cost
// model, emission points), caught at the byte level.

func wordcountTrace(t *testing.T) []byte {
	t.Helper()
	c, err := core.New(core.Options{Nodes: 6, Seed: 42, HDFS: hdfs.Config{BlockSize: 32 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Text(c.FS(), "/in/corpus.txt", datagen.TextOpts{Lines: 400, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(jobs.WordCount("/in", "/out", true)); err != nil {
		t.Fatal(err)
	}
	return tracedSnapshot(t, c)
}

func terasortTrace(t *testing.T) []byte {
	t.Helper()
	c, err := core.New(core.Options{Nodes: 6, Seed: 42, HDFS: hdfs.Config{BlockSize: 16 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := datagen.Sortable(c.FS(), "/in/records.txt", datagen.SortableOpts{Rows: 4000, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	job, err := jobs.TeraSort(c.FS(), "/in", "/out", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	return tracedSnapshot(t, c)
}

// tracedSnapshot returns the cluster's obs snapshot export after checking
// that every span in it carries trace identity: a registry records spans
// of sampled traces only.
func tracedSnapshot(t *testing.T, c *core.MiniCluster) []byte {
	t.Helper()
	data, err := c.Obs.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for _, s := range snap.Spans {
		if s.Trace == "" || s.ID == 0 {
			t.Fatalf("span %s [%d, %d] has no trace identity", s.Name, s.Start, s.End)
		}
	}
	return data
}

func checkGolden(t *testing.T, name string, build func(*testing.T) []byte) {
	t.Helper()
	// Two fresh in-process replays of the same seed must export the same
	// bytes — the determinism claim the golden file rests on.
	first := build(t)
	second := build(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed replays produced different snapshots (%d vs %d bytes)", len(first), len(second))
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(first))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("snapshot drifted from %s:\n%s\nrerun with -update if the change is intended", path, diffHint(want, first))
	}
}

// diffHint locates the first differing line of two JSON exports.
func diffHint(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d, got %d", len(wl), len(gl))
}

func TestGoldenTraceWordCount(t *testing.T) {
	checkGolden(t, "golden_wordcount.json", wordcountTrace)
}

func TestGoldenTraceTeraSort(t *testing.T) {
	if testing.Short() {
		t.Skip("terasort golden trace skipped in -short mode")
	}
	checkGolden(t, "golden_terasort.json", terasortTrace)
}
