package mrcluster_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/mrcluster"
)

func TestStatusPageDuringAndAfterJob(t *testing.T) {
	rig := newRig(t, 4, 1, hdfs.Config{BlockSize: 16 << 10}, mrcluster.Config{})
	rig.stage(t, "/in/data.txt", corpus(8000))
	h, err := rig.mc.Submit(wordCountJob("/in", "/out"))
	if err != nil {
		t.Fatal(err)
	}
	rig.eng.Advance(2 * time.Second)
	mid := rig.mc.StatusPage()
	if !strings.Contains(mid, "RUNNING") {
		t.Fatalf("status page should show a running job:\n%s", mid)
	}
	if !strings.Contains(mid, "TaskTrackers: 4/4 alive") {
		t.Fatalf("tracker summary wrong:\n%s", mid)
	}
	for !h.Done() {
		if !rig.eng.Step() {
			t.Fatal("stalled")
		}
	}
	done := rig.mc.StatusPage()
	if !strings.Contains(done, "SUCCEEDED") || !strings.Contains(done, "100%") {
		t.Fatalf("status page after completion:\n%s", done)
	}
	if rig.mc.JT.CompletedJobCounters() == nil {
		t.Fatal("no completed-job counters")
	}
}

func TestStatusPageShowsDeadTracker(t *testing.T) {
	rig := newRig(t, 3, 1, hdfs.Config{}, mrcluster.Config{})
	rig.mc.KillTaskTracker(1)
	page := rig.mc.StatusPage()
	if !strings.Contains(page, "TaskTrackers: 2/3 alive") || !strings.Contains(page, "dead") {
		t.Fatalf("dead tracker not visible:\n%s", page)
	}
}

func TestJobsListStates(t *testing.T) {
	rig := newRig(t, 4, 1, hdfs.Config{BlockSize: 64 << 10}, mrcluster.Config{MaxAttempts: 2})
	rig.stage(t, "/in/data.txt", corpus(50))
	// One job fails, one succeeds.
	rig.mc.InjectTaskFault(mrcluster.TaskFault{JobName: "wordcount", Probability: 1, AfterFraction: 0.5})
	_, _ = rig.mc.Run(wordCountJob("/in", "/out-fail"))
	okJob := wordCountJob("/in", "/out-ok")
	okJob.Name = "wordcount-ok"
	if _, err := rig.mc.Run(okJob); err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, line := range strings.Split(rig.mc.StatusPage(), "\n") {
		if f := strings.Fields(line); len(f) == 5 && strings.HasPrefix(f[0], "job_") {
			states[f[1]] = f[2]
		}
	}
	if states["wordcount"] != "FAILED" || states["wordcount-ok"] != "SUCCEEDED" {
		t.Fatalf("states = %v", states)
	}
}

// column is the byte offset of cell in the first line of page that holds
// both row and cell, or -1 if no line does.
func column(page, row, cell string) int {
	for _, line := range strings.Split(page, "\n") {
		if strings.Contains(line, row) {
			if i := strings.Index(line, cell); i >= 0 {
				return i
			}
		}
	}
	return -1
}

// TestJobTableAlignsLongIDs: the job table's columns are as wide as their
// widest cell, so a job whose ID is longer than any fixed width would
// have been still has its state under the State header.
func TestJobTableAlignsLongIDs(t *testing.T) {
	rig := newRig(t, 4, 1, hdfs.Config{BlockSize: 64 << 10}, mrcluster.Config{})
	rig.stage(t, "/in/data.txt", corpus(50))
	job := wordCountJob("/in", "/out")
	job.Name = "wordcount-combiner"
	if _, err := rig.mc.Run(job); err != nil {
		t.Fatal(err)
	}
	page := rig.mc.StatusPage()
	header, cell := column(page, "Job ID", "State"), column(page, "job_wordcount_combiner_0001", "SUCCEEDED")
	if header < 0 || header != cell {
		t.Fatalf("State header at column %d, SUCCEEDED at %d:\n%s", header, cell, page)
	}
}
