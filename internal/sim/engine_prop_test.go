package sim

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file checks the rewritten 4-ary, free-listed event queue against the
// engine's previous implementation — the container/heap binary heap below,
// kept verbatim as an oracle. Both engines are driven through the same
// randomized Schedule/Cancel/Every workloads and must produce identical
// fire logs: same events, same order, same virtual timestamps, same Cancel
// return values. Any divergence in tie-breaking, cancellation sweeping or
// free-list recycling shows up as a log mismatch.

// --- oracle: the old container/heap engine ---

type oracleEvent struct {
	at  Time
	seq uint64
	fn  func()
	idx int
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *oracleHeap) Push(x any) {
	ev := x.(*oracleEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	return ev
}

type oracleEngine struct {
	now   Time
	seq   uint64
	queue oracleHeap
}

func (e *oracleEngine) Now() Time { return e.now }

func (e *oracleEngine) Schedule(at Time, fn func()) *oracleEvent {
	if at < e.now {
		panic("oracle: schedule in the past")
	}
	e.seq++
	ev := &oracleEvent{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

func (e *oracleEngine) After(d time.Duration, fn func()) *oracleEvent {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

func (ev *oracleEvent) Cancel() bool {
	if ev == nil || ev.fn == nil {
		return false
	}
	ev.fn = nil
	return true
}

func (e *oracleEngine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*oracleEvent)
		if ev.fn == nil {
			continue
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil // cleared before the call, exactly as the old engine did
		fn()
		return true
	}
	return false
}

func (e *oracleEngine) RunUntil(deadline Time) {
	for len(e.queue) > 0 {
		if e.queue[0].fn == nil {
			heap.Pop(&e.queue)
			continue
		}
		if e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *oracleEngine) Run() {
	for e.Step() {
	}
}

type oracleTicker struct {
	e        *oracleEngine
	interval time.Duration
	fn       func()
	stopped  bool
	timer    *oracleEvent
}

func (e *oracleEngine) Every(interval time.Duration, fn func()) *oracleTicker {
	t := &oracleTicker{e: e, interval: interval, fn: fn}
	t.arm()
	return t
}

func (t *oracleTicker) arm() {
	t.timer = t.e.After(t.interval, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

func (t *oracleTicker) Stop() {
	t.stopped = true
	t.timer.Cancel()
}

// --- shared workload driver ---

// propEngine abstracts whichever engine the workload runs on.
type propEngine interface {
	now() Time
	after(d time.Duration, fn func()) (cancel func() bool)
	every(interval time.Duration, fn func()) (stop func())
	runUntil(deadline Time)
	run()
	pending() int
}

type newAdapter struct{ e *Engine }

func (a newAdapter) now() Time { return a.e.Now() }
func (a newAdapter) after(d time.Duration, fn func()) func() bool {
	tm := a.e.After(d, fn)
	return tm.Cancel
}
func (a newAdapter) every(interval time.Duration, fn func()) func() {
	tk := a.e.Every(interval, fn)
	return tk.Stop
}
func (a newAdapter) runUntil(deadline Time) { a.e.RunUntil(deadline) }
func (a newAdapter) run()                   { a.e.Run() }
func (a newAdapter) pending() int           { return a.e.Pending() }

type oracleAdapter struct{ e *oracleEngine }

func (a oracleAdapter) now() Time { return a.e.now }
func (a oracleAdapter) after(d time.Duration, fn func()) func() bool {
	ev := a.e.After(d, fn)
	return ev.Cancel
}
func (a oracleAdapter) every(interval time.Duration, fn func()) func() {
	tk := a.e.Every(interval, fn)
	return tk.Stop
}
func (a oracleAdapter) runUntil(deadline Time) { a.e.RunUntil(deadline) }
func (a oracleAdapter) run()                   { a.e.Run() }
func (a oracleAdapter) pending() int {
	n := 0
	for _, ev := range a.e.queue {
		if ev.fn != nil {
			n++
		}
	}
	return n
}

// script is the workload's only source of decisions: a byte string read
// one byte per decision, in callback order — so if the two engines ever
// diverge, they read different bytes from then on and the logs differ
// loudly rather than subtly. It is the fuzz target's input as it stands; an
// exhausted script answers 0 — which no decision below answers by starting
// anything unbounded — so any byte string is a terminating workload.
type script struct {
	ops []byte
	pos int
}

func (s *script) intn(n int) int {
	if s.pos >= len(s.ops) {
		return 0
	}
	b := s.ops[s.pos]
	s.pos++
	return int(b) % n
}

// randomScript is the seeded script TestEventQueueMatchesOracle runs.
func randomScript(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

const (
	// fleetCap bounds the long-lived tickers alive at once.
	fleetCap = 24
	// sweepPeriods is how many tickers of pairwise distinct periods the
	// preamble starts together: more than any bound on per-period state
	// an engine might keep.
	sweepPeriods = 12
	// maxDepth bounds how deep re-entrant advances may nest.
	maxDepth = 6
)

// fleetTicker is a long-lived ticker of the fleet. due is the instant of
// its next firing as the driver computes it (the instant its callback last
// returned plus its period), which is what lets the script aim a one-shot,
// or a RunUntil deadline, at exactly that instant.
type fleetTicker struct {
	id     int
	period time.Duration
	stop   func()
	due    Time
	live   bool
}

// runWorkload drives e through the schedule/cancel/ticker script ops and
// returns the fire log. Beside one-shots that spawn, cancel and start
// four-firing tickers, the script keeps a fleet of long-lived tickers on
// two periods, one dividing the other (3 and 6 ms: the heartbeat /
// block-report collision), started at different instants from outside and
// inside callbacks; fleet callbacks schedule one-shots for the exact
// instant the earliest fleet ticker of their period is next due, start and
// stop *other* fleet tickers, stop themselves and advance the clock
// re-entrantly (what an AutoAdvance HDFS client does inside an event);
// window edges stop the earliest-due fleet ticker and then run to a
// deadline equal to its firing instant; and Pending() is logged at every
// window edge.
func runWorkload(e propEngine, ops []byte, budget int) []string {
	s := &script{ops: ops}
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	var cancels []func() bool
	var stops []func()
	var fleet []*fleetTicker
	spawned, depth := 0, 0
	draining := false // set for the final Run: nothing long-lived may start

	// earliestDue returns the live fleet ticker of the given period (any
	// period when 0) that fires next, skipping the one whose callback is
	// running.
	earliestDue := func(period time.Duration, skip *fleetTicker) *fleetTicker {
		var best *fleetTicker
		for _, ft := range fleet {
			if !ft.live || ft == skip || (period != 0 && ft.period != period) {
				continue
			}
			if best == nil || ft.due < best.due {
				best = ft
			}
		}
		return best
	}
	oneShot := func(tag string, d time.Duration) {
		spawned++
		id := spawned
		cancels = append(cancels, e.after(d, func() {
			logf("%s %d @%v", tag, id, e.now())
		}))
	}
	advance := func() {
		if depth >= maxDepth {
			return
		}
		depth++
		d := time.Duration(s.intn(4)) * time.Millisecond
		logf("advance %v from @%v", d, e.now())
		e.runUntil(e.now() + d)
		logf("advanced to @%v", e.now())
		depth--
	}

	var spawn, startFleet func()
	startFleet = func() {
		live := 0
		for _, ft := range fleet {
			if ft.live {
				live++
			}
		}
		if live >= fleetCap || draining {
			return
		}
		ft := &fleetTicker{id: len(fleet), period: 3 * time.Millisecond, live: true}
		if s.intn(3) == 2 {
			ft.period = 6 * time.Millisecond
		}
		fleet = append(fleet, ft)
		fires := 0
		logf("fleet-start %d every %v @%v", ft.id, ft.period, e.now())
		stop := e.every(ft.period, func() {
			fires++
			logf("fleet %d #%d @%v", ft.id, fires, e.now())
			switch s.intn(32) { // 16 and up: just tick
			case 8: // a one-shot for the instant the head of this period's queue is due
				d := ft.period
				if head := earliestDue(ft.period, ft); head != nil && head.due >= e.now() {
					d = head.due - e.now()
				}
				oneShot("at-head", d)
			case 9:
				oneShot("now", 0)
			case 10:
				startFleet()
			case 11:
				if other := fleet[s.intn(len(fleet))]; other != ft && other.live {
					other.live = false
					other.stop()
					logf("fleet-stop %d by %d", other.id, ft.id)
				}
			case 12:
				advance()
			case 13:
				ft.live = false
				ft.stop()
				logf("fleet-stop %d by itself", ft.id)
			case 14:
				if spawned < budget {
					spawn()
				}
			case 15:
				if len(cancels) > 0 {
					i := s.intn(len(cancels))
					logf("cancel %d -> %v", i, cancels[i]())
				}
			}
			ft.due = e.now() + ft.period // it re-arms as the callback returns
		})
		ft.stop, ft.due = stop, e.now()+ft.period
	}

	spawn = func() {
		spawned++
		id := spawned
		// Coarse delays force plenty of equal-time collisions to exercise
		// the (at, seq) tie-break.
		d := time.Duration(s.intn(16)) * time.Millisecond
		cancel := e.after(d, func() {
			logf("fire %d @%v", id, e.now())
			switch k := s.intn(12); {
			case k < 4 && spawned < budget:
				spawn()
				if s.intn(2) == 0 && spawned < budget {
					spawn()
				}
			case k < 6 && len(cancels) > 0:
				i := s.intn(len(cancels))
				logf("cancel %d -> %v", i, cancels[i]())
			case k == 6 && spawned < budget:
				tid := spawned + 1
				spawned++
				fires := 0
				var stop func()
				stop = e.every(time.Duration(1+s.intn(sweepPeriods))*time.Millisecond, func() {
					fires++
					logf("tick %d #%d @%v", tid, fires, e.now())
					if fires >= 4 {
						stop()
					}
				})
				stops = append(stops, stop)
			case k == 7 && len(stops) > 0:
				i := s.intn(len(stops))
				stops[i]()
				logf("stop %d", i)
			case k == 10:
				startFleet()
			case k == 11:
				advance()
			}
		})
		cancels = append(cancels, cancel)
	}

	// Preamble: one ticker on each of sweepPeriods distinct periods, all
	// alive together, and the first fleet tickers a millisecond apart.
	for p := 1; p <= sweepPeriods; p++ {
		p, fires := p, 0
		var stop func()
		stop = e.every(time.Duration(p)*time.Millisecond, func() {
			fires++
			logf("sweep %dms #%d @%v", p, fires, e.now())
			if fires >= 3 {
				stop()
			}
		})
		stops = append(stops, stop)
	}
	for i := 0; i < 4; i++ {
		startFleet()
		e.runUntil(e.now() + time.Millisecond)
	}

	// Interleave batches of external schedules with bounded RunUntil windows
	// so events queue up across window boundaries, then drain everything.
	for phase := 0; phase < 8; phase++ {
		for i := 0; i < budget/16 && spawned < budget; i++ {
			spawn()
		}
		e.runUntil(e.now() + time.Duration(4+s.intn(8))*time.Millisecond)
		logf("window %d @%v pending=%d", phase, e.now(), e.pending())
		switch s.intn(4) {
		case 1:
			// Cancel the head of the fleet, then run to a deadline equal
			// to the instant it would have fired.
			if head := earliestDue(0, nil); head != nil {
				head.live = false
				head.stop()
				logf("fleet-stop %d at window edge, due @%v", head.id, head.due)
				e.runUntil(head.due)
				logf("ran to @%v pending=%d", e.now(), e.pending())
			}
		case 2:
			startFleet()
		}
	}
	for _, stop := range stops {
		stop()
	}
	for _, ft := range fleet {
		ft.stop()
	}
	draining = true
	logf("stopped @%v pending=%d", e.now(), e.pending())
	e.run()
	logf("end @%v spawned=%d pending=%d", e.now(), spawned, e.pending())
	return log
}

// diffLogs reports the first line at which two fire logs differ, or "".
func diffLogs(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("log[%d] = %q (new) vs %q (oracle)", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("log length %d (new) vs %d (oracle)", len(got), len(want))
	}
	return ""
}

// TestEventQueueMatchesOracle drives the new queue and the old heap with
// identical randomized workloads — in total well over 10k scheduled events
// across the seeds — and requires byte-identical logs.
func TestEventQueueMatchesOracle(t *testing.T) {
	const budget = 1500
	for seed := int64(1); seed <= 8; seed++ {
		ops := randomScript(seed, 1<<15)
		got := runWorkload(newAdapter{e: NewEngine()}, ops, budget)
		want := runWorkload(oracleAdapter{e: &oracleEngine{}}, ops, budget)
		if d := diffLogs(got, want); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// FuzzEventQueueMatchesOracle is the same comparison with the op script as
// the fuzzer's input: every byte string is a workload, and the engine must
// log what the oracle logs.
func FuzzEventQueueMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add(randomScript(1, 512))
	f.Add(randomScript(2, 2048))
	// Fleet callbacks only: each op a fleet ticker can perform, repeated.
	for op := byte(8); op <= 15; op++ {
		f.Add(bytes.Repeat([]byte{0, 0, 0, 0, op, 1, 2, 3}, 64))
	}
	// One-shots that start fleets (10), advance re-entrantly (11) and start
	// four-firing tickers on every period (6), with the window-edge
	// cancel-then-run-to-its-instant (1) in between.
	f.Add(bytes.Repeat([]byte{10, 2, 11, 3, 6, 9, 1, 12, 8, 1}, 100))
	f.Add(bytes.Repeat([]byte{1, 6, 11, 0, 6, 5, 12, 0, 13}, 100))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		const budget = 200
		got := runWorkload(newAdapter{e: NewEngine()}, ops, budget)
		want := runWorkload(oracleAdapter{e: &oracleEngine{}}, ops, budget)
		if d := diffLogs(got, want); d != "" {
			t.Fatal(d)
		}
	})
}
