package history

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Append(0, EvAuditCreate, nil)
	if l.Len() != 0 || l.Events() != nil {
		t.Fatalf("nil log recorded something")
	}
}

func TestLogAppendAndCounter(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLog(reg.Counter(MetricAuditEvents))
	l.Append(ms(1), EvAuditCreate, obs.Attrs{{Key: "src", Value: "/a"}, {Key: "user", Value: "student"}})
	l.Append(ms(2), EvAuditDelete, obs.Attrs{{Key: "src", Value: "/a"}})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if got := reg.Counter(MetricAuditEvents).Value(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	evs := l.Events()
	if evs[0].Type != EvAuditCreate || evs[1].Type != EvAuditDelete {
		t.Fatalf("unexpected events: %+v", evs)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	in := []Event{
		{TS: ms(1), Type: EvAuditCreate, Attrs: obs.Attrs{{Key: "src", Value: "/a"}, {Key: "user", Value: "student"}, {Key: "result", Value: "ok"}}},
		{TS: ms(2), Type: EvAuditOpen, Attrs: obs.Attrs{{Key: "src", Value: "/a"}, {Key: "user", Value: "student"}, {Key: "result", Value: "ok"}}},
		{TS: ms(3), Type: EvAuditSafemodeExit},
	}
	b1, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Parse[Event](b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("round trip not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
	if len(out) != 3 || out[2].Type != EvAuditSafemodeExit || out[0].Attrs.Get("src") != "/a" {
		t.Fatalf("parsed: %+v", out)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse[Event]([]byte("{\"ts_ns\":1}\nnot json\n")); err == nil {
		t.Fatal("want error for malformed line")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name the line: %v", err)
	}
}

// sampleJob builds a synthetic two-map one-reduce history: map m_000001
// fails once and its retry is the gating map; the reduce's shuffle is
// recorded. Exercises every branch of the report layer.
func sampleJob() []Event {
	j := "job_wc_0001"
	a := func(task, seq string) string { return "attempt_" + task + "_" + seq }
	m0, m1 := "task_"+j+"_m_000000", "task_"+j+"_m_000001"
	r0 := "task_" + j + "_r_000000"
	return []Event{
		{TS: ms(0), Type: EvJobSubmit, Attrs: obs.Attrs{{Key: "job", Value: j}, {Key: "name", Value: "wc"}, {Key: "user", Value: "student"}}},
		{TS: ms(0), Type: EvJobInit, Attrs: obs.Attrs{{Key: "job", Value: j}, {Key: "maps", Value: "2"}, {Key: "reduces", Value: "1"}}},
		{TS: ms(10), Type: EvAttemptStart, Attrs: obs.Attrs{{Key: "attempt", Value: a(m0, "0")}, {Key: "job", Value: j}, {Key: "task", Value: m0}, {Key: "kind", Value: "map"}, {Key: "node", Value: "node0"}, {Key: "locality", Value: "0"}}},
		{TS: ms(10), Type: EvAttemptStart, Attrs: obs.Attrs{{Key: "attempt", Value: a(m1, "0")}, {Key: "job", Value: j}, {Key: "task", Value: m1}, {Key: "kind", Value: "map"}, {Key: "node", Value: "node1"}, {Key: "locality", Value: "2"}}},
		{TS: ms(60), Type: EvAttemptFinish, Attrs: obs.Attrs{{Key: "attempt", Value: a(m0, "0")}, {Key: "job", Value: j}}},
		{TS: ms(80), Type: EvAttemptFail, Attrs: obs.Attrs{{Key: "attempt", Value: a(m1, "0")}, {Key: "job", Value: j}, {Key: "error", Value: "task fault"}}},
		{TS: ms(90), Type: EvAttemptStart, Attrs: obs.Attrs{{Key: "attempt", Value: a(m1, "1")}, {Key: "job", Value: j}, {Key: "task", Value: m1}, {Key: "kind", Value: "map"}, {Key: "node", Value: "node2"}, {Key: "locality", Value: "1"}}},
		{TS: ms(200), Type: EvAttemptFinish, Attrs: obs.Attrs{{Key: "attempt", Value: a(m1, "1")}, {Key: "job", Value: j}}},
		{TS: ms(210), Type: EvAttemptStart, Attrs: obs.Attrs{{Key: "attempt", Value: a(r0, "0")}, {Key: "job", Value: j}, {Key: "task", Value: r0}, {Key: "kind", Value: "reduce"}, {Key: "node", Value: "node0"}, {Key: "shuffle_ns", Value: "30000000"}}},
		{TS: ms(300), Type: EvAttemptFinish, Attrs: obs.Attrs{{Key: "attempt", Value: a(r0, "0")}, {Key: "job", Value: j}}},
		{TS: ms(310), Type: EvJobFinish, Attrs: obs.Attrs{{Key: "job", Value: j}, {Key: "outcome", Value: "succeeded"}, {Key: "ctr.MAP_INPUT_RECORDS", Value: "42"}}},
	}
}

func TestBuildJobReport(t *testing.T) {
	r, err := BuildJobReport(sampleJob())
	if err != nil {
		t.Fatal(err)
	}
	if r.JobID != "job_wc_0001" || r.Name != "wc" || r.User != "student" || r.Outcome != "succeeded" {
		t.Fatalf("header: %+v", r)
	}
	if r.MapTasks != 2 || r.Reduces != 1 || len(r.Attempts) != 4 {
		t.Fatalf("tasks/attempts: maps=%d reduces=%d attempts=%d", r.MapTasks, r.Reduces, len(r.Attempts))
	}
	if r.Makespan() != ms(310) {
		t.Fatalf("makespan = %v", r.Makespan())
	}
	if r.Counters["MAP_INPUT_RECORDS"] != 42 {
		t.Fatalf("counters: %v", r.Counters)
	}
	// Attempts sorted by start, ties by ID.
	if r.Attempts[0].Node != "node0" || r.Attempts[1].Node != "node1" {
		t.Fatalf("attempt order: %+v", r.Attempts)
	}
	if got := r.Attempts[1]; got.Outcome != "failed" || got.Reason != "task fault" {
		t.Fatalf("failed attempt: %+v", got)
	}
}

func TestCriticalPath(t *testing.T) {
	r, err := BuildJobReport(sampleJob())
	if err != nil {
		t.Fatal(err)
	}
	path := r.CriticalPath()
	// Expected: failed first attempt of m_000001, its winning retry, then
	// the terminal reduce.
	if len(path) != 3 {
		t.Fatalf("path length = %d: %+v", len(path), path)
	}
	if path[0].Outcome != "failed" || !strings.Contains(path[0].ID, "_m_000001_0") {
		t.Fatalf("path[0]: %+v", path[0])
	}
	if path[1].Outcome != "succeeded" || !strings.Contains(path[1].ID, "_m_000001_1") {
		t.Fatalf("path[1]: %+v", path[1])
	}
	if path[2].Kind != "reduce" || path[2].Outcome != "succeeded" {
		t.Fatalf("path[2]: %+v", path[2])
	}
}

func TestSlowestAndNodeStatsAndShuffle(t *testing.T) {
	r, err := BuildJobReport(sampleJob())
	if err != nil {
		t.Fatal(err)
	}
	slow := r.SlowestAttempts(2)
	if len(slow) != 2 || slow[0].Duration() != ms(110) {
		t.Fatalf("slowest: %+v", slow)
	}
	stats := r.NodeStats()
	if len(stats) != 2 || stats[0].Node != "node0" || stats[0].Attempts != 2 {
		t.Fatalf("node stats: %+v", stats)
	}
	sh, total := r.ShuffleTotal()
	if sh != ms(30) || total != ms(90) {
		t.Fatalf("shuffle %v of %v", sh, total)
	}
}

func TestAnalysisStringMentionsEverything(t *testing.T) {
	r, err := BuildJobReport(sampleJob())
	if err != nil {
		t.Fatal(err)
	}
	s := r.AnalysisString()
	for _, want := range []string{
		"Job job_wc_0001 (wc) SUCCEEDED",
		"Critical path (3 attempts bound completion)",
		"Slowest 3 attempts",
		"Shuffle: 30ms of 90ms total reduce time (33.3%)",
		"Per-node successful attempts",
		"node2",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("analysis missing %q:\n%s", want, s)
		}
	}
	if s != r.AnalysisString() {
		t.Fatal("AnalysisString not deterministic")
	}
}

func TestBuildJobReportErrors(t *testing.T) {
	if _, err := BuildJobReport(nil); err == nil {
		t.Fatal("want error for empty log")
	}
	bad := []Event{
		{TS: 0, Type: EvJobSubmit, Attrs: obs.Attrs{{Key: "job", Value: "j"}}},
		{TS: 1, Type: EvAttemptFinish, Attrs: obs.Attrs{{Key: "attempt", Value: "ghost"}}},
	}
	if _, err := BuildJobReport(bad); err == nil {
		t.Fatal("want error for finish without start")
	}
}
