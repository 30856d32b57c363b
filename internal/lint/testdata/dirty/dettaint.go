package dirty

import (
	"math/rand"
	"time"
)

// A direct wall-clock or global-rand call is flagged at every call site.
// Every caller further up is flagged once, at its first call down the
// chain, and the diagnostic names the chain.

func readClock() time.Time {
	return time.Now() // want: dettaint
}

func viaHelper() time.Time {
	return readClock() // want: dettaint
}

func viaTwoHops() int64 {
	return viaHelper().UnixNano() // want: dettaint
}

func drawGlobal() int {
	return rand.Intn(6) // want: dettaint
}

func viaDraw() int {
	return drawGlobal() + 1 // want: dettaint
}

// anyKey returns from inside a range over a map: the returned element is
// chosen by Go's randomized iteration order. The helper itself is the
// taint source, flagged at the return, and callers are
// flagged at their call sites.
func anyKey(m map[string]int) string {
	for k := range m {
		return k // want: dettaint
	}
	return ""
}

func pickVictim(m map[string]int) string {
	return anyKey(m) // want: dettaint
}

// Trace identity must derive from the sim clock and registry sequence
// counters (internal/obs mints TraceID/SpanID that way): IDs minted from
// the wall clock or the process-global rand differ on every replay and
// break the byte-stable trace-export goldens.

func wallClockTraceID() int64 {
	return time.Now().UnixNano() // want: dettaint
}

func traceIDFromClock() int64 {
	return wallClockTraceID() // want: dettaint
}

func randSpanID() int64 {
	return rand.Int63() // want: dettaint
}

func spanIDFromRand() int64 {
	return randSpanID() | 1 // want: dettaint
}
