package trace_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/trace"
)

// roundTrip checks Parse∘Marshal is the identity on whatever data parses
// as a JSONL log of T: re-marshalling the parsed records and parsing them
// again yields the same records and the same bytes. A line that does not
// parse must be an error, never a panic.
func roundTrip[T any](t *testing.T, data []byte) []T {
	t.Helper()
	recs, err := history.Parse[T](data)
	if err != nil {
		return nil
	}
	out, err := history.Marshal(recs)
	if err != nil {
		t.Fatalf("Marshal of parsed records: %v", err)
	}
	back, err := history.Parse[T](out)
	if err != nil {
		t.Fatalf("Parse of Marshal output: %v\n%s", err, out)
	}
	again, err := history.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) || !bytes.Equal(out, again) {
		t.Fatalf("Parse∘Marshal is not the identity: %d records -> %d\n%s\nvs\n%s", len(recs), len(back), out, again)
	}
	return recs
}

// FuzzTraceAnalyze feeds hostile bytes through both persisted JSONL
// formats and the readers behind cmd/mrtrace, cmd/mrhistory and the
// webui: as a trace export into every Analyze selection and renderer, and
// as a job-history file into BuildJobReport and its reports. Nothing may
// panic or loop; the seeds are the shapes a torn, truncated or hand-
// edited file takes.
func FuzzTraceAnalyze(f *testing.F) {
	for _, seed := range []string{
		// parent cycle
		`{"name":"a","start_ns":0,"end_ns":5,"trace":"t1","span":1,"parent":2}` + "\n" +
			`{"name":"b","start_ns":0,"end_ns":5,"trace":"t1","span":2,"parent":1}` + "\n",
		// self-parent
		`{"name":"a","start_ns":0,"end_ns":5,"trace":"t1","span":1,"parent":1}` + "\n",
		// duplicate span ids, one of them closing a cycle through the other
		`{"name":"a","start_ns":0,"end_ns":9,"trace":"t1","span":1}` + "\n" +
			`{"name":"b","start_ns":1,"end_ns":5,"trace":"t1","span":2,"parent":1}` + "\n" +
			`{"name":"c","start_ns":2,"end_ns":4,"trace":"t1","span":1,"parent":2}` + "\n",
		// missing parent, negative extent, attrs
		`{"name":"hdfs.read_block","start_ns":9,"end_ns":2,"trace":"t1","span":7,"parent":3,"attrs":{"node":"n1"}}` + "\n",
		// traced but no span ids; untraced
		`{"name":"a","start_ns":0,"end_ns":5,"trace":"t1"}` + "\n" + `{"name":"flat","start_ns":0,"end_ns":5}` + "\n",
		// empty, blank lines, torn last line
		"", "\n\n",
		`{"name":"a","start_ns":0,"end_ns":5,"trace":"t1","span":1}` + "\n" + `{"name":"b","start_ns":0,"end`,
		// a history file: submit, attempt, torn finish
		`{"ts_ns":0,"type":"job.submit","attrs":{"job":"j","name":"n"}}` + "\n" +
			`{"ts_ns":1,"type":"attempt.start","attrs":{"attempt":"attempt_task_j_m_000000_0","kind":"map","locality":"x","task":"task_j_m_000000"}}` + "\n" +
			`{"ts_ns":5,"type":"attempt.finish","attrs":{"attempt":"attempt_task_j_m_000000_0"}}` + "\n" +
			`{"ts_ns":6,"type":"job.finish","attrs":{"ctr.X":"9","outcome":"succ`,
		`{"ts_ns":1,"type":"attempt.kill","attrs":{"attempt":"ghost"}}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	for _, golden := range []string{"golden_wordcount_trace.jsonl", "golden_history_events.jsonl"} {
		data, err := os.ReadFile("../jobs/testdata/" + golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spans := roundTrip[obs.Span](t, data)
		ids := []obs.TraceID{"", "t1"}
		for _, s := range trace.Summaries(spans) {
			ids = append(ids, s.ID)
		}
		for _, id := range ids {
			a, err := trace.Analyze(spans, id)
			if err != nil {
				continue
			}
			if len(a.Roots) == 0 || len(a.Path) == 0 || len(a.Blame) == 0 {
				t.Fatalf("Analyze(%q) succeeded with %d roots, %d steps, %d blame rows", id, len(a.Roots), len(a.Path), len(a.Blame))
			}
			for _, r := range a.Roots {
				trace.RenderTree(r)
			}
			trace.RenderCriticalPath(a.Path)
			trace.RenderBlame(a.Blame)
		}
		if rep, err := history.BuildJobReport(roundTrip[history.Event](t, data)); err == nil {
			rep.AnalysisString()
			rep.SummaryString()
		}
	})
}
