// Causal tracing: span recording with deterministic trace/span identity,
// in the shape of Dapper/X-Trace scaled to the teaching cluster. A
// subsystem starts a trace at a causal root (job submission, serving
// request, re-replication decision), threads the returned Ctx down its
// call chain, and derives one child Ctx per logical operation. Recording
// takes explicit virtual-clock instants, so a parent (the job) can record
// *after* its children (the attempts) and still sit above them in the
// tree: identity is allocated when the Ctx is created, not when the span
// is recorded.
//
// Determinism contract: trace IDs derive from the per-registry trace
// sequence counter plus the sim-clock instant the trace started; span
// IDs are the registry-wide span sequence. No wall clock, no math/rand
// (the dettaint lint fixtures pin the dirty versions of both), so the
// same seed replays byte-identical trace exports — the property the
// golden-trace tests in internal/jobs pin.
package obs

import (
	"fmt"
	"time"
)

// TraceID identifies one causal trace. The empty string is the invalid
// (unsampled) ID.
type TraceID string

// SpanID identifies one span within a registry; 0 means "none" (a
// root's parent).
type SpanID uint64

// Ctx is the trace context threaded through a call chain, and the one
// handle spans are recorded through: the registry it records into, which
// trace the caller belongs to, the caller's own span identity, and its
// parent's. A context is either sampled or inert: head sampling hands an
// unsampled trace the zero Ctx, which records nothing, as Dapper records
// nothing for a request it did not sample.
type Ctx struct {
	r      *Registry
	trace  TraceID
	span   SpanID
	parent SpanID
}

// Valid reports whether the context carries a sampled trace. Call sites
// whose attrs cost something to build (block reads, shuffles, cache
// lookups) check it first, so those attrs exist only in sampled traces.
func (c Ctx) Valid() bool { return c.trace != "" }

// Trace returns the context's trace ID ("" when unsampled).
func (c Ctx) Trace() TraceID { return c.trace }

// SetTraceSampling sets head-based sampling: keep 1 trace in every n
// (the first of each window, deterministically). n <= 1 keeps all — the
// default, and what the teaching flows want; high-rate producers like
// the serving tier pass their own client-side stride on top.
func (r *Registry) SetTraceSampling(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if n <= 1 {
		r.sampleEvery = 0
	} else {
		r.sampleEvery = uint64(n)
	}
	r.mu.Unlock()
}

// NewTrace starts a trace at the given virtual-clock instant and returns
// its root context. The head-sampling decision happens here: an
// unsampled trace returns the zero Ctx, and so does every NewChild below
// it. The trace ID embeds the registry's trace sequence number and the
// start instant — both replay-deterministic.
func (r *Registry) NewTrace(now time.Duration) Ctx {
	if r == nil {
		return Ctx{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traceSeq++
	if r.sampleEvery > 1 && (r.traceSeq-1)%r.sampleEvery != 0 {
		return Ctx{}
	}
	r.spanSeq++
	return Ctx{
		r:     r,
		trace: TraceID(fmt.Sprintf("t%06d-%d", r.traceSeq, now.Nanoseconds())),
		span:  SpanID(r.spanSeq),
	}
}

// NewChild allocates a child context under c: same trace, fresh span ID,
// parented on c's span. An unsampled context is its own child.
func (c Ctx) NewChild() Ctx {
	if !c.Valid() {
		return c
	}
	c.r.mu.Lock()
	c.r.spanSeq++
	child := Ctx{r: c.r, trace: c.trace, span: SpanID(c.r.spanSeq), parent: c.span}
	c.r.mu.Unlock()
	return child
}

// End records the span this context identifies — the only way a span
// enters a registry. Callers pass explicit virtual-clock instants: in a
// discrete-event simulation the modelled end of an operation is known
// when it is scheduled. The span carries the context's trace, span and
// parent IDs; an unsampled context records nothing.
func (c Ctx) End(name string, start, end time.Duration, attrs map[string]string) {
	if !c.Valid() {
		return
	}
	c.r.mu.Lock()
	c.r.spans = append(c.r.spans, Span{
		Name: name, Start: start, End: end,
		Trace: c.trace, ID: c.span, Parent: c.parent,
		Attrs: attrs,
	})
	c.r.mu.Unlock()
}

// ChildSpan records [start, end] as a child of c: NewChild then End, for
// a leaf operation nothing nests under.
func (c Ctx) ChildSpan(name string, start, end time.Duration, attrs map[string]string) {
	c.NewChild().End(name, start, end, attrs)
}

// SpansTraced returns every span of one trace, in record order.
func (r *Registry) SpansTraced(id TraceID) []Span {
	if r == nil || id == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.spans {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}
