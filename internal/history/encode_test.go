package history

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// checkRoundTrip asserts that parsed records survive marshal then parse.
func checkRoundTrip[T any](t *testing.T, recs []T) {
	t.Helper()
	data, err := Marshal(recs)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Parse[T](data)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("parse∘marshal changed the records:\n%#v\n%#v", recs, back)
	}
}

// FuzzEventLog: parsing a line never panics, and what parses, as events
// or as spans, survives marshal then parse unchanged.
func FuzzEventLog(f *testing.F) {
	for _, name := range []string{"golden_audit", "golden_history_events", "golden_wordcount_trace"} {
		data, err := os.ReadFile(filepath.Join("..", "jobs", "testdata", name+".jsonl"))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > 0 {
				f.Add(line)
			}
		}
	}
	f.Add([]byte("{\"ts_ns\":1,\"type\":\"<&>\",\"attrs\":{\"\u2028\":\"a\xffb\",\"\":\"\",\"k\":\"1\",\"k\":\"2\"}}"))
	f.Fuzz(func(t *testing.T, line []byte) {
		if evs, err := Parse[Event](line); err == nil {
			checkRoundTrip(t, evs)
		}
		if spans, err := Parse[obs.Span](line); err == nil {
			checkRoundTrip(t, spans)
		}
	})
}

// TestMarshalRejectsRepeatedAttr: a map could not hold two values for one
// key, so a record that sets one twice does not marshal.
func TestMarshalRejectsRepeatedAttr(t *testing.T) {
	twice := obs.Attrs{{Key: "b", Value: "1"}, {Key: "a", Value: "2"}, {Key: "b", Value: "3"}}
	if _, err := Marshal([]Event{{Type: "x", Attrs: twice}}); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("event: err = %v, want the repeated key named", err)
	}
	if _, err := Marshal([]obs.Span{{Name: "x", Attrs: twice}}); err == nil {
		t.Fatal("span with a repeated attr marshalled")
	}
	if _, err := json.Marshal(twice); err == nil {
		t.Fatal("json.Marshal of a repeated attr succeeded")
	}
}

// TestParsedAttrsAreKeySorted: whatever order a producer wrote, the file
// holds sorted keys and reading it back gives the pairs in that order.
func TestParsedAttrsAreKeySorted(t *testing.T) {
	ev := Event{TS: 5, Type: "t", Attrs: obs.Attrs{{Key: "z", Value: "1"}, {Key: "a<", Value: "2"}, {Key: "m", Value: "3"}}}
	data, err := Marshal([]Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"ts_ns":5,"type":"t","attrs":{"a\u003c":"2","m":"3","z":"1"}}` + "\n"; string(data) != want {
		t.Fatalf("got %s want %s", data, want)
	}
	back, err := Parse[Event](data)
	if err != nil {
		t.Fatal(err)
	}
	want := obs.Attrs{{Key: "a<", Value: "2"}, {Key: "m", Value: "3"}, {Key: "z", Value: "1"}}
	if !reflect.DeepEqual(back[0].Attrs, want) || back[0].Attrs.Get("m") != "3" {
		t.Fatalf("parsed attrs %v, want %v", back[0].Attrs, want)
	}
	if _, ok := back[0].Attrs.Lookup("absent"); ok {
		t.Fatal("Lookup found an absent key")
	}
}
