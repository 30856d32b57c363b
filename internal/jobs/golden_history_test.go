package jobs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/hdfs"
	"repro/internal/history"
	"repro/internal/jobs"
	"repro/internal/vfs"
)

// historyJobID is the id the canonical wordcount run gets: the first job
// submitted to a fresh cluster, named "wordcount-combiner".
const historyJobID = "job_wordcount_combiner_0001"

// historyRun replays the canonical fixed-seed wordcount and returns the
// three artifacts the history subsystem produces for it: the NameNode
// audit log, the job-history event file persisted into HDFS, and the
// critical-path analysis rebuilt from that file.
func historyRun(t *testing.T) (audit, events []byte, report string) {
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
	audit, err = history.Marshal(c.DFS.AuditLog().Events())
	if err != nil {
		t.Fatal(err)
	}
	events, err = vfs.ReadFile(c.FS(), history.EventsPath(historyJobID))
	if err != nil {
		t.Fatalf("job history not persisted to HDFS: %v", err)
	}
	parsed, err := history.Parse[history.Event](events)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := history.BuildJobReport(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return audit, events, rep.AnalysisString()
}

// checkGoldenBytes compares got against testdata/name, rewriting the
// file under -update (shared with the golden-trace tests).
func checkGoldenBytes(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted:\n%s\nrerun with -update if the change is intended", path, diffHint(want, got))
	}
}

// TestGoldenJobHistory pins the history subsystem's output byte-for-byte:
// the same seed must produce the identical audit log, the identical
// events.jsonl in HDFS, and the identical mrhistory -analyze report on
// every replay — and those bytes are committed as goldens.
func TestGoldenJobHistory(t *testing.T) {
	audit1, events1, report1 := historyRun(t)
	audit2, events2, report2 := historyRun(t)
	if !bytes.Equal(audit1, audit2) {
		t.Fatalf("same-seed replays produced different audit logs (%d vs %d bytes)", len(audit1), len(audit2))
	}
	if !bytes.Equal(events1, events2) {
		t.Fatalf("same-seed replays produced different job-history files (%d vs %d bytes)", len(events1), len(events2))
	}
	if report1 != report2 {
		t.Fatal("same-seed replays produced different analysis reports")
	}
	checkGoldenBytes(t, "golden_audit.jsonl", audit1)
	checkGoldenBytes(t, "golden_history_events.jsonl", events1)
	checkGoldenBytes(t, "golden_history_report.txt", []byte(report1))
}
