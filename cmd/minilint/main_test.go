package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

const (
	cleanDir  = "../../internal/lint/testdata/clean"
	dirtyDir  = "../../internal/lint/testdata/dirty"
	brokenDir = "../../internal/lint/testdata/broken"
)

// TestSelfCheckClean: the driver run against the clean fixture package
// prints nothing and exits 0 — the shape of a passing `make lint`.
func TestSelfCheckClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{cleanDir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("want empty stdout, got:\n%s", stdout.String())
	}
}

// TestSelfCheckBroken: a package that does not type-check is a load
// error, exit 2, with the type error's file:line on stderr.
func TestSelfCheckBroken(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{brokenDir}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "broken.go:7:") {
		t.Errorf("stderr does not name broken.go:7:\n%s", stderr.String())
	}
}

// TestSelfCheckDirty pins the driver's findings for the dirty fixture:
// exit 1 and exactly this diagnostic list (file:line and rule; messages
// are free to evolve). The list doubles as a read-out of what the suite
// currently catches — update it deliberately when adding cases.
func TestSelfCheckDirty(t *testing.T) {
	want := []string{
		"commiterr.go:15 commiterr",
		"commiterr.go:16 commiterr",
		"commiterr.go:17 commiterr",
		"commiterr.go:18 commiterr",
		"commiterr.go:19 commiterr",
		"dettaint.go:13 dettaint",
		"dettaint.go:17 dettaint",
		"dettaint.go:21 dettaint",
		"dettaint.go:25 dettaint",
		"dettaint.go:29 dettaint",
		"dettaint.go:38 dettaint",
		"dettaint.go:44 dettaint",
		"dettaint.go:53 dettaint",
		"dettaint.go:57 dettaint",
		"dettaint.go:61 dettaint",
		"dettaint.go:65 dettaint",
		"globalrand.go:10 dettaint",
		"globalrand.go:11 dettaint",
		"globalrand.go:12 dettaint",
		"globalrand.go:13 dettaint",
		"globalrand.go:18 dettaint",
		"ignore.go:18 dettaint",
		"ignore.go:22 unused-ignore",
		"ignore.go:23 dettaint",
		"ignore.go:26 unused-ignore",
		"init.go:9 dettaint",
		"init.go:12 dettaint",
		"init.go:16 dettaint",
		"libhygiene.go:13 libhygiene",
		"libhygiene.go:14 libhygiene",
		"libhygiene.go:15 libhygiene",
		"libhygiene.go:16 libhygiene",
		"lockguard.go:27 lockorder",
		"lockguard.go:35 lockorder",
		"lockguard.go:66 lockorder",
		"lockguard.go:92 lockorder",
		"lockorder.go:16 lockorder",
		"lockorder.go:48 lockorder",
		"lockorder.go:60 lockorder",
		"lockorder.go:102 lockorder",
		"maporder.go:11 maporder",
		"maporder.go:43 maporder",
		"maporder.go:49 maporder",
		"maporder.go:55 maporder",
		"maporder.go:71 maporder",
		"wallclock.go:10 dettaint",
		"wallclock.go:11 dettaint",
		"wallclock.go:12 dettaint",
		"wallclock.go:13 dettaint",
		"wallclock.go:15 dettaint",
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{dirtyDir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		// "path/file.go:NN: [rule] message" -> "file.go:NN rule"
		loc, rest, ok := strings.Cut(line, ": [")
		if !ok {
			t.Fatalf("unparseable output line %q", line)
		}
		rule, _, ok := strings.Cut(rest, "]")
		if !ok {
			t.Fatalf("unparseable output line %q", line)
		}
		got = append(got, filepath.Base(loc)+" "+rule)
	}
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		w, g := "", ""
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Errorf("finding %d: got %q, want %q", i, g, w)
		}
	}
}

// TestListAnalyzers: -list names exactly the five rules, one per line.
func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"maporder", "libhygiene", "dettaint", "lockorder", "commiterr"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list rules %v, want %v:\n%s", got, want, stdout.String())
	}
}

// TestTraceOutput: -trace prints the call chain, one indented frame per
// line, under an interprocedural finding.
func TestTraceOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", dirtyDir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, frame := range []string{"\tdirty.viaTwoHops\n", "\t  dirty.viaHelper\n", "\t    dirty.readClock\n", "\t      time.Now\n"} {
		if !strings.Contains(out, frame) {
			t.Errorf("-trace output missing frame %q:\n%s", frame, out)
		}
	}
}

// BenchmarkLintRepo times the full suite (call graph included) over the
// whole repository — the make-ci path. Budget: well under ten seconds
// per run, so the gate stays cheap enough to run on every change.
func BenchmarkLintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"../../internal/...", "../../cmd/...", "../../examples/..."}, &stdout, &stderr); code != 0 {
			b.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
		}
	}
}
