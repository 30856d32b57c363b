// Causal tracing: deterministic trace/span identity over the existing
// span recorder, in the shape of Dapper/X-Trace scaled to the teaching
// cluster. A subsystem starts a trace at a causal root (job submission,
// serving request, re-replication decision), threads the returned Ctx
// down its call chain, and derives one child Ctx per logical operation.
// Recording stays where it always was — explicit virtual-clock instants
// — so a parent (the job) can record *after* its children (the attempts)
// and still sit above them in the tree: identity is allocated when the
// Ctx is created, not when the span is recorded.
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

// SpanID identifies one span within a registry; 0 means "none" (an
// untraced span, or a root's parent).
type SpanID uint64

// Ctx is the trace context threaded through a call chain: which trace
// the caller belongs to, the caller's own span identity, and its
// parent's. The zero Ctx is invalid and every operation on it is a
// no-op, so unsampled traces cost nothing downstream.
type Ctx struct {
	r      *Registry
	trace  TraceID
	span   SpanID
	parent SpanID
}

// Valid reports whether the context carries a sampled trace.
func (c Ctx) Valid() bool { return c.r != nil && c.trace != "" }

// Trace returns the context's trace ID ("" when invalid).
func (c Ctx) Trace() TraceID { return c.trace }

// Span returns the span ID allocated to this context (0 when invalid).
func (c Ctx) Span() SpanID { return c.span }

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
// unsampled trace returns the invalid Ctx (every downstream NewChild /
// End is then a no-op). The trace ID embeds the registry's trace
// sequence number and the start instant — both replay-deterministic.
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
// parented on c's span. Invalid in, invalid out.
func (c Ctx) NewChild() Ctx {
	if !c.Valid() {
		return Ctx{}
	}
	c.r.mu.Lock()
	c.r.spanSeq++
	child := Ctx{r: c.r, trace: c.trace, span: SpanID(c.r.spanSeq), parent: c.span}
	c.r.mu.Unlock()
	return child
}

// End records the span this context identifies. No-op when invalid —
// callers that must record regardless of sampling use Registry.SpanCtx.
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

// SpanCtx records a span that must exist either way: with c's identity
// when c is a sampled context of this registry, as a plain orphan span
// otherwise. This is how the pre-tracing span sites (attempt spans,
// pipeline writes, splits) keep their flat /timeline behaviour while
// gaining causal identity whenever a context reaches them.
func (r *Registry) SpanCtx(c Ctx, name string, start, end time.Duration, attrs map[string]string) {
	if r == nil {
		return
	}
	if c.Valid() && c.r == r {
		c.End(name, start, end, attrs)
		return
	}
	r.Span(name, start, end, attrs)
}

// ChildSpan allocates a child of parent, records it over [start, end],
// and returns the child context for deeper nesting. When parent is
// invalid the span is recorded as a plain orphan (via SpanCtx semantics)
// and the returned context is invalid.
func (r *Registry) ChildSpan(parent Ctx, name string, start, end time.Duration, attrs map[string]string) Ctx {
	child := parent.NewChild()
	r.SpanCtx(child, name, start, end, attrs)
	return child
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
