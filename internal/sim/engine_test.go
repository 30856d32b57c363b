package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(time.Second, func() {
		e.After(2*time.Second, func() { at = e.Now() })
	})
	e.Run()
	if at != 3*time.Second {
		t.Fatalf("nested After fired at %v, want 3s", at)
	}
}

func TestRunUntilLeavesClockAtDeadline(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10*time.Second, func() { fired = true })
	e.RunUntil(5 * time.Second)
	if fired {
		t.Fatal("future event fired before deadline")
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
	e.RunUntil(20 * time.Second)
	if !fired {
		t.Fatal("event never fired")
	}
	if e.Now() != 20*time.Second {
		t.Fatalf("clock = %v, want 20s", e.Now())
	}
}

func TestAdvance(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Every(time.Second, func() { n++ })
	e.Advance(10 * time.Second)
	if n != 10 {
		t.Fatalf("ticker fired %d times in 10s, want 10", n)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Advance(time.Minute)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(time.Second, func() {})
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("first cancel reported dead timer")
	}
	if tm.Cancel() {
		t.Fatal("second cancel reported live timer")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending events after stop: %d", e.Pending())
	}
}

// TestTickerFiringDoesNotAllocate is the budget behind the idle control
// plane: once every ticker of a fleet has fired (so the free list holds an
// event struct for each), advancing the clock allocates nothing — the
// callback is built once per ticker and the event is recycled.
func TestTickerFiringDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 0; i < 200; i++ {
		period := 3 * time.Second
		if i%3 == 0 {
			period = 10 * time.Second
		}
		e.Every(period, func() { fired++ })
	}
	e.Advance(time.Minute)
	before := fired
	if allocs := testing.AllocsPerRun(10, func() { e.Advance(time.Minute) }); allocs != 0 {
		t.Fatalf("a minute of 200 tickers allocated %v times, want 0", allocs)
	}
	if fired == before {
		t.Fatal("no ticker fired during the measured runs")
	}
}

// TestStats follows the engine's counters through a small scenario whose
// every number can be worked out by hand.
func TestStats(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	a := e.Every(2*time.Second, nop)
	b := e.Every(2*time.Second, nop)
	c := e.Every(5*time.Second, nop)
	one := e.After(3*time.Second, nop)
	e.After(4*time.Second, nop)
	if got := e.Stats(); got.Tickers != 3 || got.Lanes != 2 || got.FreeMisses != 5 || got.FreeHits != 0 {
		t.Fatalf("after set-up: %+v", got)
	}
	one.Cancel()
	e.RunUntil(4 * time.Second) // a, b fire at 2s and 4s; one is swept; the other one-shot fires
	want := EngineStats{
		HeapFired: 1, LaneFired: 4, Swept: 1,
		HeapHigh: 2, LaneHigh: 2, Tickers: 3, Lanes: 2,
		FreeHits: 4, FreeMisses: 5,
	}
	if got := e.Stats(); got != want {
		t.Fatalf("at 4s:\n got %+v\nwant %+v", got, want)
	}
	if e.Processed != want.HeapFired+want.LaneFired {
		t.Fatalf("Processed = %d, want heap + lane = %d", e.Processed, want.HeapFired+want.LaneFired)
	}
	// The 2 s lane retires with its last ticker, discarding both pending
	// (now cancelled) firings; the 5 s lane lives on.
	a.Stop()
	b.Stop()
	b.Stop() // a second Stop is a no-op
	if got := e.Stats(); got.Tickers != 1 || got.Lanes != 1 || got.Swept != 3 {
		t.Fatalf("after stopping the 2s tickers: %+v", got)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want c's next firing only", e.Pending())
	}
	c.Stop()
	if got := e.Stats(); got.Tickers != 0 || got.Lanes != 0 || e.Pending() != 0 {
		t.Fatalf("after stopping every ticker: %+v, pending %d", got, e.Pending())
	}
}

// TestMoreDistinctPeriodsThanLanes: tickers that find every lane taken go
// through the heap, fire in the same global order, and take over a lane
// once one retires.
func TestMoreDistinctPeriodsThanLanes(t *testing.T) {
	e := NewEngine()
	const n = maxLanes + 3
	var got []int
	tickers := make([]*Ticker, n)
	for i := 0; i < n; i++ {
		i := i
		tickers[i] = e.Every(time.Duration(i+1)*time.Second, func() { got = append(got, i) })
	}
	if s := e.Stats(); s.Lanes != maxLanes || s.Tickers != n {
		t.Fatalf("lanes = %d, tickers = %d; want %d, %d", s.Lanes, s.Tickers, maxLanes, n)
	}
	e.RunUntil(12 * time.Second)
	// At every instant the due tickers fire in the order they were armed:
	// the longer the period, the earlier that was.
	var want []int
	for now := time.Second; now <= 12*time.Second; now += time.Second {
		for i := n - 1; i >= 0; i-- {
			if now%(time.Duration(i+1)*time.Second) == 0 {
				want = append(want, i)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d times, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing %d was ticker %d, want %d\n got %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
	if s := e.Stats(); s.HeapFired == 0 || s.LaneFired == 0 {
		t.Fatalf("both queues should have fired: %+v", s)
	}
	tickers[0].Stop()
	late := e.Every(time.Second, func() {})
	if late.lane == nil || e.Stats().Lanes != maxLanes {
		t.Fatalf("a retired lane was not reused: %+v", e.Stats())
	}
}

// TestLaneSurvivesClockRunningBackwards: Stop inside RunUntil leaves the
// clock at the deadline with earlier events still pending, so the next
// event fired moves it back. A ticker armed then would sort before one
// armed at the deadline; it must still fire first.
func TestLaneSurvivesClockRunningBackwards(t *testing.T) {
	e := NewEngine()
	var got []string
	e.After(time.Second, e.Stop)
	e.After(2*time.Second, func() {
		e.Every(10*time.Second, func() { got = append(got, "early") })
	})
	e.RunUntil(5 * time.Second) // stops at 1s; the clock reads 5s
	e.Every(10*time.Second, func() { got = append(got, "late") })
	e.RunUntil(16 * time.Second)
	if len(got) != 2 || got[0] != "early" || got[1] != "late" {
		t.Fatalf("fired %v, want [early late]", got)
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue reported progress")
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Every(time.Second, func() {
		n++
		if n == 5 {
			e.Stop()
		}
	})
	e.Run()
	if n != 5 {
		t.Fatalf("ran %d events after Stop, want 5", n)
	}
}

func TestClockMonotone(t *testing.T) {
	// Property: however events reschedule each other, observed times during
	// the run never decrease.
	e := NewEngine()
	r := NewRand(42)
	last := Time(0)
	ok := true
	var spawn func(depth int)
	spawn = func(depth int) {
		e.After(time.Duration(r.Intn(1000))*time.Millisecond, func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if depth > 0 {
				spawn(depth - 1)
				spawn(depth - 1)
			}
		})
	}
	spawn(6)
	e.Run()
	if !ok {
		t.Fatal("clock went backwards")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRandDeriveIndependentOfCallOrder(t *testing.T) {
	// Derive must be a pure function of (parent state, label); two parents
	// with the same seed deriving the same label get the same stream.
	a := NewRand(1).Derive("datanode")
	b := NewRand(1).Derive("datanode")
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("derived streams differ for identical seed+label")
		}
	}
	c := NewRand(1).Derive("tasktracker")
	d := NewRand(1).Derive("datanode")
	same := true
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different labels produced identical streams")
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(11)
	z := r.Zipf(1.2, 1000)
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		counts[z.Uint64()]++
	}
	if counts[0] < counts[100] {
		t.Fatalf("zipf not skewed: rank0=%d rank100=%d", counts[0], counts[100])
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	r := NewRand(5)
	idx := r.Shuffled(100)
	seen := make([]bool, 100)
	for _, v := range idx {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", idx)
		}
		seen[v] = true
	}
}
