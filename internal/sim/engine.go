// Package sim provides a deterministic discrete-event simulation core:
// a virtual clock, an ordered event queue, recurring timers and a seeded
// random source. Every time-dependent component of the minihadoop stack
// (heartbeats, block reports, task completions, scheduler cleanup cycles)
// runs on this engine so that whole-cluster scenarios are reproducible
// bit-for-bit across runs.
package sim

import (
	"fmt"

	"time"
)

// Time is an instant on the virtual clock, expressed as the duration since
// the engine started. Durations and instants share the same representation,
// which keeps arithmetic trivial.
type Time = time.Duration

// event is a scheduled callback. Events with equal fire times run in the
// order they were scheduled (seq breaks ties). Event structs are pooled:
// once popped from the queue an event goes back on the engine's free list
// and may be handed out again by a later Schedule. gen is bumped at each
// recycle so stale Timer handles (whose captured gen no longer matches)
// cannot cancel the event's next incarnation.
type event struct {
	at  Time
	seq uint64
	gen uint64
	fn  func()
}

// eventQueue is a 4-ary min-heap ordered by (at, seq). A 4-ary layout
// halves the tree depth of the binary heap it replaced, and the hand-rolled
// sift routines avoid the interface boxing and indirect calls of
// container/heap — Schedule and Step are the innermost loop of every
// simulation.
type eventQueue []*event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q eventQueue) siftUp(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

func (q eventQueue) siftDown(i int) {
	n := len(q)
	ev := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(q[j], q[best]) {
				best = j
			}
		}
		if !eventLess(q[best], ev) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = ev
}

// maxLanes bounds the per-period ticker lanes of one engine, and with it
// the cost of finding the next event (one comparison per lane in use). The
// stack's ten Every call sites use six distinct periods at their defaults;
// a ticker that finds no lane free goes through the heap.
const maxLanes = 8

// lane is the queue of the pending firings of every ticker of one period.
// A firing is pushed for now+period; the clock never runs backwards and seq
// only grows, so pushes arrive already in (at, seq) order and the lane is a
// FIFO ring: push at the back, pop at the front, both O(1). push refuses
// the one event that would break the order (see Ticker.arm), so the order
// is an invariant of the lane and not of its callers.
type lane struct {
	period  time.Duration
	ring    []*event // capacity is a power of two
	head, n int
	tickers int // live tickers of this period; the lane retires at zero
}

func (l *lane) front() *event { return l.ring[l.head] }

// push appends ev unless it sorts before the lane's last event.
func (l *lane) push(ev *event) bool {
	if l.n > 0 && ev.at < l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at {
		return false
	}
	if l.n == len(l.ring) {
		grown := make([]*event, max(16, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = ev
	l.n++
	return true
}

func (l *lane) pop() *event {
	ev := l.ring[l.head]
	l.ring[l.head] = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all simulated components are driven from the event loop.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue // one-shot events, and tickers that found no lane
	lanes   []*lane    // at most maxLanes, in no particular order
	free    []*event   // recycled event structs, see event
	stopped bool
	// Processed counts events executed, useful as a progress metric and a
	// guard against runaway simulations.
	Processed uint64
	// MaxEvents aborts Run with an error when exceeded (0 = unlimited).
	MaxEvents uint64

	stats EngineStats // the counters behind Stats; derived fields are filled there
}

// EngineStats is a reading of the engine's own counters: where events
// fired from, how full the queues got and how well the free list served.
type EngineStats struct {
	HeapFired  uint64 // events fired from the heap (one-shots)
	LaneFired  uint64 // events fired from a ticker lane
	Swept      uint64 // cancelled events discarded without firing
	HeapHigh   int    // most events the heap ever held
	LaneHigh   int    // most events any one lane ever held
	Tickers    int    // tickers started and not yet stopped
	Lanes      int    // ticker lanes in use (one per distinct period, at most maxLanes)
	FreeHits   uint64 // events taken from the free list
	FreeMisses uint64 // events the free list could not serve: allocations
}

// Stats returns the engine's counters. HeapFired + LaneFired == Processed,
// and FreeHits + FreeMisses is the number of events ever scheduled.
func (e *Engine) Stats() EngineStats {
	s := e.stats
	s.HeapFired = e.Processed - s.LaneFired
	s.FreeHits = e.seq - s.FreeMisses
	s.Lanes = len(e.lanes)
	return s
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// newEvent numbers an event for at and takes its struct from the free list.
func (e *Engine) newEvent(at Time, fn func()) *event {
	e.seq++
	n := len(e.free)
	if n == 0 {
		e.stats.FreeMisses++
		return &event{at: at, seq: e.seq, fn: fn}
	}
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	return ev
}

func (e *Engine) pushHeap(ev *event) {
	e.queue = append(e.queue, ev)
	e.queue.siftUp(len(e.queue) - 1)
	if len(e.queue) > e.stats.HeapHigh {
		e.stats.HeapHigh = len(e.queue)
	}
}

// Schedule runs fn at the absolute virtual time at. Scheduling in the past
// (before Now) panics: it always indicates a logic error in a simulation.
func (e *Engine) Schedule(at Time, fn func()) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.newEvent(at, fn)
	e.pushHeap(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// After runs fn after the virtual duration d.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// popHeap removes and returns the heap's earliest event without recycling it.
func (e *Engine) popHeap() *event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.queue.siftDown(0)
	}
	return ev
}

// release puts a popped event on the free list. Bumping gen here — not at
// reuse — guarantees any Timer still holding the old generation sees a
// mismatch from the moment the event leaves the queue.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// next returns the earliest pending event and the lane it heads (nil: it
// is the heap's top), or nil when nothing is pending. The heap top and the
// lane heads are compared by the same eventLess, so the global fire order
// is (at, seq) whichever queue an event waits in. Cancelled events are
// discarded as they surface at the front of a queue.
func (e *Engine) next() (*event, *lane) {
	var best *event
	var from *lane
	for len(e.queue) > 0 && e.queue[0].fn == nil {
		e.sweep(e.popHeap())
	}
	if len(e.queue) > 0 {
		best = e.queue[0]
	}
	for _, l := range e.lanes {
		for l.n > 0 && l.front().fn == nil {
			e.sweep(l.pop())
		}
		if l.n > 0 {
			if ev := l.front(); best == nil || eventLess(ev, best) {
				best, from = ev, l
			}
		}
	}
	return best, from
}

// sweep recycles a cancelled event that has left its queue.
func (e *Engine) sweep(ev *event) {
	e.stats.Swept++
	e.release(ev)
}

// fire executes ev, which next just returned as the head of from.
func (e *Engine) fire(ev *event, from *lane) {
	if from != nil {
		from.pop()
		e.stats.LaneFired++
	} else {
		e.popHeap()
	}
	e.now = ev.at
	e.Processed++
	fn := ev.fn
	e.release(ev)
	fn()
}

// Advance moves the clock forward by d, firing any events that fall within
// the window. It is the synchronous-caller complement to Run: interactive
// flows (a shell command, a client upload) compute a modelled cost and then
// Advance the clock by it.
func (e *Engine) Advance(d time.Duration) {
	if d < 0 {
		panic("sim: negative advance")
	}
	e.RunUntil(e.now + d)
}

// Step executes the single next pending event, returning false when the
// queue is empty.
func (e *Engine) Step() bool {
	ev, from := e.next()
	if ev == nil {
		return false
	}
	e.fire(ev, from)
	return true
}

func (e *Engine) checkMaxEvents() {
	if e.MaxEvents > 0 && e.Processed >= e.MaxEvents {
		panic(fmt.Sprintf("sim: exceeded MaxEvents=%d", e.MaxEvents))
	}
}

// RunUntil processes events until the queue is exhausted or the next event
// would fire after deadline; the clock is left at deadline (or at the last
// event time if that is later, which cannot happen).
func (e *Engine) RunUntil(deadline Time) {
	for !e.stopped {
		ev, from := e.next()
		if ev == nil || ev.at > deadline {
			break
		}
		e.checkMaxEvents()
		e.fire(ev, from)
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.stopped = false
}

// Run processes events until the queue drains or Stop is called. The clock
// is left at the time of the last event executed.
func (e *Engine) Run() {
	for !e.stopped {
		ev, from := e.next()
		if ev == nil {
			break
		}
		e.checkMaxEvents()
		e.fire(ev, from)
	}
	e.stopped = false
}

// Stop halts Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of live (non-cancelled) events in the queue.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if ev.fn != nil {
			n++
		}
	}
	for _, l := range e.lanes {
		for i := 0; i < l.n; i++ {
			if l.ring[(l.head+i)&(len(l.ring)-1)].fn != nil {
				n++
			}
		}
	}
	return n
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// Timer is valid and Cancel on it is a no-op, so callers can keep one in a
// struct field without a pointer. Because event structs are pooled, the
// handle captures the event's generation; a Timer outliving its event (it
// fired, or was cancelled and swept) can never affect the recycled struct.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. Reports whether the event was live.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.fn == nil {
		return false
	}
	t.ev.fn = nil
	return true
}

// Ticker fires fn every interval until stopped. Its firings wait in the
// lane of its period (see lane) when the engine has one to give, else in
// the heap like any one-shot; either way a firing costs no allocation: the
// callback is built once, and the event struct it is armed on is the one
// the firing before it just released.
type Ticker struct {
	engine   *Engine
	interval time.Duration
	fn       func()
	fire     func() // runs fn and re-arms; what every firing's event carries
	lane     *lane  // nil: this ticker's firings go through the heap
	stopped  bool
	timer    Timer
}

// Every schedules fn to run every interval, first firing after one interval.
func (e *Engine) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn, lane: e.laneFor(interval)}
	// A stopped ticker's pending firing is cancelled, so fire only ever
	// runs live; fn may stop the ticker, which is the one thing to check.
	t.fire = func() {
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	e.stats.Tickers++
	t.arm()
	return t
}

// laneFor returns the lane of period with one more ticker on it, opening
// the lane if there is room; nil when all maxLanes serve other periods.
func (e *Engine) laneFor(period time.Duration) *lane {
	for _, l := range e.lanes {
		if l.period == period {
			l.tickers++
			return l
		}
	}
	if len(e.lanes) == maxLanes {
		return nil
	}
	l := &lane{period: period, tickers: 1}
	e.lanes = append(e.lanes, l)
	return l
}

// arm schedules the next firing one interval from now. The lane takes it
// unless it would sort before the lane's tail, which only a clock that ran
// backwards can cause (RunUntil cut short by Stop leaves the clock at the
// deadline, ahead of events still pending); that firing waits in the heap.
func (t *Ticker) arm() {
	e := t.engine
	ev := e.newEvent(e.now+t.interval, t.fire)
	t.timer = Timer{ev: ev, gen: ev.gen}
	if l := t.lane; l != nil && l.push(ev) {
		if l.n > e.stats.LaneHigh {
			e.stats.LaneHigh = l.n
		}
		return
	}
	e.pushHeap(ev)
}

// Stop prevents future firings.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.timer.Cancel()
	e := t.engine
	e.stats.Tickers--
	if l := t.lane; l != nil {
		if l.tickers--; l.tickers == 0 {
			e.retire(l)
		}
	}
}

// retire gives up the lane of a period whose last ticker has stopped.
// Whatever it still holds is cancelled, and is recycled here.
func (e *Engine) retire(l *lane) {
	for l.n > 0 {
		e.sweep(l.pop())
	}
	for i, x := range e.lanes {
		if x == l {
			last := len(e.lanes) - 1
			e.lanes[i], e.lanes[last] = e.lanes[last], nil
			e.lanes = e.lanes[:last]
			return
		}
	}
}
