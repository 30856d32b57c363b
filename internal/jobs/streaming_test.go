package jobs_test

import (
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/serial"
	"repro/internal/vfs"
)

func requireTools(t *testing.T, tools ...string) {
	t.Helper()
	for _, tool := range tools {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s not available: %v", tool, err)
		}
	}
}

func TestStreamingWordCount(t *testing.T) {
	requireTools(t, "sh", "awk", "tr")
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("to be or not to be\nto be is to do\n")); err != nil {
		t.Fatal(err)
	}
	job := jobs.Streaming("/in", "/out",
		[]string{"sh", "-c", `tr -s ' ' '\n' | awk 'NF {print $1 "\t1"}'`},
		[]string{"awk", `-F` + "\t", `{s[$1]+=$2} END {for (k in s) print k "\t" s[k]}`},
	)
	if _, err := (&serial.Runner{FS: fs}).Run(job); err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadOutput(fs, "/out")
	if err != nil {
		t.Fatal(err)
	}
	got := parseKV(out)
	want := map[string]string{"to": "4", "be": "3", "or": "1", "not": "1", "is": "1", "do": "1"}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("streaming count[%s] = %q, want %s (all: %v)", k, got[k], v, got)
		}
	}
}

func TestStreamingIdentityPreservesRecords(t *testing.T) {
	requireTools(t, "cat")
	fs := vfs.NewMemFS()
	data := "k1\tv1\nk3\tv3\nk2\tv2\n"
	if err := vfs.WriteFile(fs, "/in/f.tsv", []byte(data)); err != nil {
		t.Fatal(err)
	}
	job := jobs.Streaming("/in", "/out", []string{"cat"}, []string{"cat"})
	if _, err := (&serial.Runner{FS: fs}).Run(job); err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadOutput(fs, "/out")
	if err != nil {
		t.Fatal(err)
	}
	inLines := strings.Split(strings.TrimSpace(data), "\n")
	sort.Strings(inLines) // framework sorts by key
	outLines := strings.Split(strings.TrimSpace(out), "\n")
	if len(inLines) != len(outLines) {
		t.Fatalf("record count changed: %v vs %v", inLines, outLines)
	}
	for i := range inLines {
		if inLines[i] != outLines[i] {
			t.Fatalf("record %d: %q vs %q", i, inLines[i], outLines[i])
		}
	}
}

func TestStreamingCommandFailureSurfaces(t *testing.T) {
	requireTools(t, "sh")
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/in/f.txt", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	job := jobs.Streaming("/in", "/out", []string{"sh", "-c", "exit 3"}, []string{"sh", "-c", "cat"})
	if _, err := (&serial.Runner{FS: fs}).Run(job); err == nil {
		t.Fatal("failing mapper command did not fail the job")
	}
}

// A reducer command may exit 0 without reading all its input. The broken
// pipe its input writer then sees must not decide the task: the exit
// status does, on every run.
func TestStreamingCommandThatStopsReading(t *testing.T) {
	requireTools(t, "cat", "true", "head")
	var in strings.Builder
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&in, "k%05d\tv%d\n", i, i)
	}
	for _, tc := range []struct {
		reducer []string
		want    string
	}{
		{[]string{"true"}, ""},
		{[]string{"head", "-n", "1"}, "k00000\tv0\n"},
	} {
		for run := 0; run < 5; run++ {
			fs := vfs.NewMemFS()
			if err := vfs.WriteFile(fs, "/in/f.tsv", []byte(in.String())); err != nil {
				t.Fatal(err)
			}
			job := jobs.Streaming("/in", "/out", []string{"cat"}, tc.reducer)
			if _, err := (&serial.Runner{FS: fs}).Run(job); err != nil {
				t.Fatalf("%v reducer, run %d: %v", tc.reducer, run, err)
			}
			out, err := mapreduce.ReadOutput(fs, "/out")
			if err != nil {
				t.Fatal(err)
			}
			if out != tc.want {
				t.Fatalf("%v reducer, run %d: output %q, want %q", tc.reducer, run, out, tc.want)
			}
		}
	}
}
