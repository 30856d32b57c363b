package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one harness-recorded interval on the host clock. Times are
// nanoseconds since the recorder was created; Parent is 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Iter    int    `json:"iter"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps the spans of a traced run in memory. A nil recorder is
// the plain run: every method is a no-op, so the workloads call it
// unconditionally and the plain run pays one nil check per call site.
type recorder struct {
	epoch time.Time
	iter  int
	spans []span
	open  []int // stack of open span IDs; the driving goroutine is the only caller
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Iter: r.iter, Name: name,
		StartNS: time.Since(r.epoch).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNS = time.Since(r.epoch).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// do runs fn inside a span.
func (r *recorder) do(name string, fn func() error) error {
	id := r.begin(name)
	err := fn()
	r.end(id)
	return err
}

// selfTimes returns each span's self time by ID: its duration minus the
// durations of its direct children (children of one parent never overlap
// because one goroutine records them).
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.duration()
		if s.Parent != 0 {
			self[s.Parent] -= s.duration()
		}
	}
	return self
}

// selfSecondsByName sums self time per span name within each iteration
// and returns the median over iterations, in seconds.
func selfSecondsByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	perIter := map[string]map[int]float64{}
	for _, s := range spans {
		if perIter[s.Name] == nil {
			perIter[s.Name] = map[int]float64{}
		}
		perIter[s.Name][s.Iter] += self[s.ID].Seconds()
	}
	out := make(map[string]float64, len(perIter))
	for name, byIter := range perIter {
		vals := make([]float64, 0, len(byIter))
		for _, v := range byIter {
			vals = append(vals, v)
		}
		out[name] = median(vals)
	}
	return out
}

// writeJSONL writes the spans one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
