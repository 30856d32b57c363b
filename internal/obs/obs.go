// Package obs is the unified observability layer of the minihadoop
// stack: a deterministic metrics registry (counters, gauges, sim-time
// histograms) and a span tracer keyed on the virtual clock. Every
// subsystem — NameNode, DataNodes, HDFS clients, JobTracker,
// TaskTrackers, the serial runner — emits through one Registry, so a
// whole run condenses into a single Snapshot.
//
// Because the simulation is deterministic, a snapshot is a replayable
// artifact: the same seed produces a byte-identical SnapshotJSON export,
// which is what makes golden-trace testing possible (see
// internal/jobs/golden_trace_test.go).
//
// Hot paths allocate nothing: call sites intern *Counter / *Gauge /
// *Histogram handles once at construction and then Add/Set/Observe on
// plain atomics (histograms take a short mutex). The registry is safe
// for concurrent use — the serial runner's parallel map tasks hit it
// from real goroutines.
package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically accumulating int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins int64 metric.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of exponential histogram buckets: bucket i
// holds observations with d <= 1µs<<i; the final bucket is +Inf.
const histBuckets = 33

// histBound returns the inclusive upper bound of bucket i in
// nanoseconds, or -1 for the overflow bucket.
func histBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return int64(time.Microsecond) << uint(i)
}

// Histogram accumulates virtual-time durations into exponential
// power-of-two buckets from 1µs to ~1.2h, plus an overflow bucket.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	buckets [histBuckets]int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < histBuckets-1 && int64(d) > histBound(i) {
		i++
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	h.buckets[i]++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Percentile returns the nearest-rank q-th percentile (0 < q <= 1) of an
// ascending slice of durations, or 0 for an empty one. Exact where the
// histogram's buckets are not: for latency tables that a test or golden
// pins to the nanosecond.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// Rank ceil(q·n), less a hair: 0.07·100 = 7.000000000000001 is rank 7.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// Span is one completed operation on the virtual clock. Start and End
// are instants on the sim engine's clock (durations since engine start).
// Trace/ID/Parent carry the span's causal identity (see trace.go). Every
// span a registry records has them; a span read from a file may not, and
// readers of such files skip it.
type Span struct {
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Trace  TraceID           `json:"trace,omitempty"`
	ID     SpanID            `json:"span,omitempty"`
	Parent SpanID            `json:"parent,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span's extent.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Registry holds every metric and span of one cluster (or one
// standalone run). The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []Span

	// Causal-tracing state (see trace.go): per-registry sequence counters
	// — never wall clock, never math/rand — so trace and span IDs replay
	// byte-identically, plus the head-sampling modulus.
	traceSeq    uint64
	spanSeq     uint64
	sampleEvery uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// intern returns the metric registered under name in m (one of r's three
// metric maps), creating it on first use. Call once at construction and
// keep the handle: Add / Set / Observe on the handle is the hot path.
func intern[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = new(T)
		m[name] = v
	}
	return v
}

// Counter interns and returns the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return intern(r, r.counters, name)
}

// Gauge interns and returns the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return intern(r, r.gauges, name)
}

// Histogram interns and returns the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return intern(r, r.hists, name)
}

// Spans returns a copy of all recorded spans in record order.
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// CounterValue returns the named counter's value (0 if never interned).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// --- snapshot / export ---

// CounterSnap is one counter in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a Snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketSnap is one non-empty histogram bucket: observations with
// duration <= Le nanoseconds (Le = -1 marks the overflow bucket).
type BucketSnap struct {
	Le    int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// HistSnap is one histogram in a Snapshot.
type HistSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum_ns"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is the full, deterministic state of a registry: metrics in
// sorted name order, spans in record order. Marshalling a Snapshot with
// encoding/json is byte-stable (attr maps render with sorted keys).
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
	Spans      []Span        `json:"spans"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Counters:   make([]CounterSnap, 0, len(r.counters)),
		Gauges:     make([]GaugeSnap, 0, len(r.gauges)),
		Histograms: make([]HistSnap, 0, len(r.hists)),
		Spans:      append([]Span(nil), r.spans...),
	}
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		hs := HistSnap{Name: name, Count: h.count, Sum: int64(h.sum)}
		for i, n := range h.buckets {
			if n > 0 {
				hs.Buckets = append(hs.Buckets, BucketSnap{Le: histBound(i), Count: n})
			}
		}
		h.mu.Unlock()
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// SnapshotJSON returns the indented JSON export of the snapshot, with a
// trailing newline. Snapshot's field order plus sorted metric slices make
// the encoding stable: the output is byte-identical across replays of
// the same seed.
func (r *Registry) SnapshotJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
