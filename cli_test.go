// End-to-end smoke tests for the command-line tools, exercising the real
// binaries the way docs/LABS.md tells students to.
package repro_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd runs `go run ./cmd/<name> args...` with optional stdin.
func runCmd(t *testing.T, stdin string, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + name}, args...)...)
	cmd.Dir = "."
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIExperimentsList(t *testing.T) {
	out := runCmd(t, "", "experiments", "-list")
	for _, want := range []string{"FIG1", "T1", "E9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("experiments -list missing %s:\n%s", want, out)
		}
	}
}

func TestCLIExperimentsRunE7(t *testing.T) {
	out := runCmd(t, "", "experiments", "-run", "E7")
	if !strings.Contains(out, "Google cluster trace") || !strings.Contains(out, "1h") {
		t.Fatalf("E7 output:\n%s", out)
	}
}

func TestCLIDatagenAndMrrun(t *testing.T) {
	dir := t.TempDir()
	out := runCmd(t, "", "datagen", "-out", dir, "-only", "corpus", "-scale", "0.01")
	if !strings.Contains(out, "top word") {
		t.Fatalf("datagen output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "corpus", "shakespeare.txt")); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "wc-out")
	out = runCmd(t, "", "mrrun", "-job", "wordcount", "-in", filepath.Join(dir, "corpus"), "-out", outDir)
	for _, want := range []string{"Job wordcount completed successfully (standalone)", "MAP_INPUT_RECORDS", "TOTAL_LAUNCHED_MAPS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mrrun output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(outDir, "part-r-00000"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "the\t") {
		t.Fatalf("wordcount output:\n%.200s", data)
	}
}

func TestCLIMrrunClusterMode(t *testing.T) {
	dir := t.TempDir()
	runCmd(t, "", "datagen", "-out", dir, "-only", "airline", "-scale", "0.02")
	outDir := filepath.Join(dir, "air-out")
	out := runCmd(t, "", "mrrun", "-job", "airline-avg-combiner", "-mode", "cluster",
		"-in", filepath.Join(dir, "airline"), "-out", outDir)
	if !strings.Contains(out, "Data-local maps") {
		t.Fatalf("cluster mode report:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(outDir, "part-r-00000")); err != nil {
		t.Fatal(err)
	}
}

// TestCLILab7Straggler runs docs/LABS.md's Lab 7 at small scale — a job
// on a cluster whose node 2 is 8x slow, with speculation on — and checks
// that the exported history shows what the lab tells students to find.
// A straggler node off the cluster is an error, as a slow disk is.
func TestCLILab7Straggler(t *testing.T) {
	const jobID = "job_wordcount_0001"
	dir := t.TempDir()
	runCmd(t, "", "datagen", "-out", dir, "-only", "corpus", "-scale", "0.02")
	corpus, hist := filepath.Join(dir, "corpus"), filepath.Join(dir, "hist")
	runCmd(t, "", "mrrun", "-job", "wordcount", "-mode", "cluster", "-in", corpus,
		"-out", filepath.Join(dir, "out"), "-block", "16384",
		"-slow-node", "2", "-speculative", "-history", hist)

	// The slow node's attempts were all killed when their backups won.
	slowKilled := 0
	for _, line := range strings.Split(runCmd(t, "", "mrhistory", "-dir", hist, "-job", jobID), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[1], "attempt_") || f[2] != "node002" {
			continue
		}
		if !strings.HasPrefix(f[len(f)-1], "killed") {
			t.Fatalf("node002 attempt not killed: %s", line)
		}
		slowKilled++
	}
	events, err := os.ReadFile(filepath.Join(hist, jobID, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if slowKilled == 0 || !strings.Contains(string(events), `"reason":"sibling finished first"`) {
		t.Fatalf("%d node002 attempts killed; events:\n%s", slowKilled, events)
	}
	out := runCmd(t, "", "mrhistory", "-dir", hist, "-job", jobID, "-analyze")
	_, critical, _ := strings.Cut(out, "Critical path")
	critical, _, _ = strings.Cut(critical, "Slowest")
	_, perNode, _ := strings.Cut(out, "Per-node successful attempts:")
	if perNode == "" || strings.Contains(perNode, "node002") || !strings.Contains(critical, "speculative") {
		t.Fatalf("-analyze should run the critical path through a speculative backup and list no success on node002:\n%s", out)
	}

	for _, flag := range []string{"-slow-node", "-slow-disk"} {
		cmd := exec.Command("go", "run", "./cmd/mrrun", "-job", "wordcount", "-mode", "cluster",
			"-in", corpus, "-out", filepath.Join(dir, "out"+flag), flag, "99")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || !strings.Contains(string(out), "exit status 1") ||
			!strings.Contains(string(out), flag+" 99: no such node") {
			t.Fatalf("mrrun %s 99 on 8 nodes: err %v, output:\n%s", flag, err, out)
		}
	}
}

func TestCLIMinihdfsSession(t *testing.T) {
	script := "-mkdir /user/student\n-ls /\n-fsck /\n"
	out := runCmd(t, script, "minihdfs", "-nodes", "4")
	for _, want := range []string{"$ hadoop fs -mkdir", "is HEALTHY"} {
		if !strings.Contains(out, want) {
			t.Fatalf("minihdfs session missing %q:\n%s", want, out)
		}
	}
}

func TestCLIMyhadoopFlow(t *testing.T) {
	out := runCmd(t, "", "myhadoop", "-nodes", "4", "-pool", "8")
	for _, want := range []string{"reservation granted", "wordcount", "released cleanly"} {
		if !strings.Contains(out, want) {
			t.Fatalf("myhadoop flow missing %q:\n%s", want, out)
		}
	}
}

func TestCLIMrhistory(t *testing.T) {
	// The committed golden history file doubles as the CLI fixture: lay it
	// out the way an `hadoop fs -get /history` export would look.
	const jobID = "job_wordcount_combiner_0001"
	events, err := os.ReadFile(filepath.Join("internal", "jobs", "testdata", "golden_history_events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, jobID), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, jobID, "events.jsonl"), events, 0o644); err != nil {
		t.Fatal(err)
	}

	out := runCmd(t, "", "mrhistory", "-dir", dir, "-list")
	if strings.TrimSpace(out) != jobID {
		t.Fatalf("-list output:\n%s", out)
	}
	out = runCmd(t, "", "mrhistory", "-dir", dir, "-job", jobID)
	for _, want := range []string{"Job " + jobID + " (wordcount-combiner) SUCCEEDED", "attempt_task_", "Counters:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	out = runCmd(t, "", "mrhistory", "-dir", dir, "-job", jobID, "-analyze")
	for _, want := range []string{"Critical path", "Slowest", "Shuffle:", "Per-node successful attempts"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-analyze missing %q:\n%s", want, out)
		}
	}
	want, err := os.ReadFile(filepath.Join("internal", "jobs", "testdata", "golden_history_report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("-analyze drifted from the pinned report:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// TestCLIMrtrace reads the committed golden trace export, then a trace
// whose two spans name each other as parent: no span is a root, and the
// tool must say so and exit 1 rather than index an empty root list.
func TestCLIMrtrace(t *testing.T) {
	golden := filepath.Join("internal", "jobs", "testdata", "golden_wordcount_trace.jsonl")
	for args, wants := range map[string][]string{
		"-list":          {"t000002-3000000000", "mr.job"},
		"":               {"trace t000002-3000000000", "  mr.task", "hdfs.write_pipeline"},
		"-critical-path": {"Critical path", "1. mr.job"},
		"-blame":         {"Blame", "mr.reduce_attempt        node000"},
	} {
		out := runCmd(t, "", "mrtrace", append([]string{"-file", golden}, strings.Fields(args)...)...)
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Fatalf("mrtrace %s missing %q:\n%s", args, want, out)
			}
		}
	}

	cyclic := filepath.Join(t.TempDir(), "cyclic.jsonl")
	if err := os.WriteFile(cyclic, []byte(
		`{"name":"a","start_ns":0,"end_ns":5,"trace":"t1","span":1,"parent":2}`+"\n"+
			`{"name":"b","start_ns":0,"end_ns":5,"trace":"t1","span":2,"parent":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/mrtrace", "-file", cyclic, "-critical-path")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(out), "exit status 1") ||
		!strings.Contains(string(out), "is a root") || strings.Contains(string(out), "panic") {
		t.Fatalf("mrtrace on a parent cycle: err %v, output:\n%s", err, out)
	}
}

func TestCLIMyhadoopShowScript(t *testing.T) {
	out := runCmd(t, "", "myhadoop", "-show-script")
	if !strings.Contains(out, "#PBS -l select=") {
		t.Fatalf("script:\n%s", out)
	}
}
