package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Parent: 0, Iter: 0, Name: "iteration", StartNS: 0, EndNS: ms(100)},
		{ID: 2, Parent: 1, Iter: 0, Name: "core.new", StartNS: ms(0), EndNS: ms(10)},
		{ID: 3, Parent: 1, Iter: 0, Name: "mrcluster.run", StartNS: ms(10), EndNS: ms(90)},
		{ID: 4, Parent: 3, Iter: 0, Name: "yarn.submit", StartNS: ms(20), EndNS: ms(25)},
		{ID: 5, Parent: 3, Iter: 0, Name: "yarn.submit", StartNS: ms(30), EndNS: ms(45)},
		// a second iteration, twice as slow
		{ID: 6, Parent: 0, Iter: 1, Name: "iteration", StartNS: ms(100), EndNS: ms(300)},
		{ID: 7, Parent: 6, Iter: 1, Name: "core.new", StartNS: ms(100), EndNS: ms(130)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 10 * time.Millisecond, // 100 − (10 + 80)
		2: 10 * time.Millisecond,
		3: 60 * time.Millisecond, // 80 − (5 + 15)
		4: 5 * time.Millisecond,
		5: 15 * time.Millisecond,
		6: 170 * time.Millisecond,
		7: 30 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	byName := selfSecondsByName(spans)
	// per-iteration sums, then the median over iterations
	for name, wantS := range map[string]float64{
		"core.new":      0.020, // median(0.010, 0.030)
		"yarn.submit":   0.020, // one iteration: 5 ms + 15 ms
		"mrcluster.run": 0.060,
		"iteration":     0.090, // median(0.010, 0.170)
	} {
		if got := byName[name]; got < wantS-1e-9 || got > wantS+1e-9 {
			t.Errorf("self seconds of %s = %v, want %v", name, got, wantS)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	var nilRec *recorder
	if err := nilRec.do("x", func() error { return nil }); err != nil || nilRec.begin("y") != 0 {
		t.Fatal("nil recorder must be a no-op")
	}
	rec := newRecorder()
	rec.iter = 7
	outer := rec.begin("outer")
	if err := rec.do("inner", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	rec.end(outer)
	if len(rec.spans) != 2 || rec.spans[1].Parent != rec.spans[0].ID || rec.spans[0].Parent != 0 {
		t.Fatalf("bad nesting: %+v", rec.spans)
	}
	if rec.spans[1].Iter != 7 || rec.spans[0].EndNS < rec.spans[1].EndNS {
		t.Fatalf("bad span fields: %+v", rec.spans)
	}
	path := filepath.Join(t.TempDir(), "sub", "t.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Fatalf("trace file has %d lines, want 2", lines)
	}
}

func TestCountingFSConformance(t *testing.T) {
	vfstest.Run(t, "countingFS", func(t *testing.T) vfs.FileSystem {
		return &countingFS{FileSystem: vfs.NewMemFS()}
	})
	fs := &countingFS{FileSystem: vfs.NewMemFS()}
	if err := vfs.WriteFile(fs, "/a.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/b.txt", []byte("world!")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/a.txt"); err == nil {
		t.Fatal("create over an existing file succeeded")
	}
	if fs.filesCreated != 2 || fs.bytesWritten != 11 {
		t.Fatalf("counted %d files, %d bytes; want 2, 11", fs.filesCreated, fs.bytesWritten)
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall, _ := findMetric("wall_s")
	events, _ := findMetric("sim.events")
	fail, _ := findMetric("fail_ratio")
	layer, _ := findMetric("core.new_s")
	// spreads and moves are stated in units of the metric's own bound
	b := wall.bound
	tight := func(v float64) metricValue {
		return metricValue{Value: v, Q1: v * (1 - b/10), Q3: v * (1 + b/10), Min: v * (1 - b/5), Max: v * (1 + b/5)}
	}
	noisy := func(v float64) metricValue {
		return metricValue{Value: v, Q1: v * (1 - b), Q3: v * (1 + b), Min: v * (1 - 1.5*b), Max: v * (1 + 1.5*b)}
	}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b metricValue
		want string
	}{
		{"within bound", wall, tight(1), tight(1 + b/2), vSame},
		{"beyond bound", wall, tight(1), tight(1 + 2*b), vWorse},
		{"faster", wall, tight(1), tight(1 - 2*b), vBetter},
		{"noise wider than bound", wall, noisy(1), tight(1 + 2*b), vUnresolved},
		{"noisy but disjoint", wall, noisy(1), tight(1 - 3*b), vBetter},
		{"count equal", events, metricValue{Value: 79}, metricValue{Value: 79}, vSame},
		{"count moved", events, metricValue{Value: 79}, metricValue{Value: 78}, vWorse},
		{"failures fell", fail, metricValue{Value: 0.1}, metricValue{Value: 0}, vBetter},
		{"failures rose", fail, metricValue{Value: 0}, metricValue{Value: 0.1}, vWorse},
		{"layer time has no bound", layer, tight(1), tight(3), vUngated},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestSmokeMatchesManifest runs every workload at smoke size, traced, and
// requires the names, units, directions and bounds it emits to be exactly
// the ones BENCHMARK.json declares, so the two cannot drift. The same
// runs feed the determinism checks: a second run at the same seed must
// reproduce every exact metric and the digest, and a second seed must
// pass its oracles too.
func TestSmokeMatchesManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q), harness has %q (%q)",
				i, mf.Workloads[i].Name, mf.Workloads[i].Why, w.name, w.why)
		}
	}
	checkDefs := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		t.Helper()
		if len(declared) != len(defs) {
			t.Fatalf("%s: manifest declares %d metrics, the harness %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: manifest %+v, harness %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || bounded && *m.Bound != d.bound {
				t.Errorf("%s[%d] %s: bound in manifest does not match harness bound %v", kind, i, d.name, d.bound)
			}
		}
	}
	checkDefs("end_to_end", mf.EndToEnd, endToEnd, true)
	checkDefs("per_layer", mf.PerLayer, perLayer, false)

	emitted := func(res *result, trace bool) []string {
		t.Helper()
		line, err := contractLine(res, trace)
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Failed != 0 || parsed.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (%v)", res.Workload, parsed.Correct, parsed.Attempted, parsed.Failed, res.Failures)
		}
		var names []string
		for name := range parsed.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	declaredNames := func(ms []manifestMetric) []string {
		var names []string
		for _, m := range ms {
			names = append(names, m.Name)
		}
		sort.Strings(names)
		return names
	}

	outDir := t.TempDir()
	smoke := func(seed int64, trace bool) config {
		return smokeConfig(config{seed: seed, trace: trace, outDir: outDir})
	}
	for _, w := range workloads {
		traced, err := runWorkload(w, smoke(1234, true))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := emitted(traced, true), declaredNames(mf.PerLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traced run emits %v, manifest declares %v", w.name, got, want)
		}
		if got, want := emitted(traced, false), declaredNames(mf.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: plain run emits %v, manifest declares %v", w.name, got, want)
		}
		for name, m := range traced.Metrics {
			if def, ok := findMetric(name); !ok || def.unit != m.Unit {
				t.Errorf("%s: metric %s (%s) is not declared with that unit", w.name, name, m.Unit)
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, w.name+".trace.jsonl")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}

		again, err := runWorkload(w, smoke(1234, false))
		if err != nil {
			t.Fatal(err)
		}
		if again.Digest != traced.Digest {
			t.Errorf("%s: digest %s then %s at one seed", w.name, traced.Digest, again.Digest)
		}
		for _, d := range perLayer {
			if d.exact && again.Metrics[d.name].Value != traced.Metrics[d.name].Value {
				t.Errorf("%s: %s = %v then %v at one seed", w.name, d.name,
					traced.Metrics[d.name].Value, again.Metrics[d.name].Value)
			}
		}

		other, err := runWorkload(w, smoke(4321, false))
		if err != nil {
			t.Fatal(err)
		}
		if other.Failed != 0 {
			t.Errorf("%s: seed 4321 fails its oracles: %v", w.name, other.Failures)
		}
		if other.Digest == traced.Digest {
			t.Errorf("%s: seeds 1234 and 4321 give the same digest; is the seed used?", w.name)
		}
	}
}
