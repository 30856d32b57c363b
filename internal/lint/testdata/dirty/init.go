package dirty

import "time"

// Package initialisation is code too. Each init function is a call-graph
// node of its own, and the package-level var initialisers belong to one
// node per package, so a clock read at load time is seen like any other.

var started = startStamp() // want: dettaint

func startStamp() time.Time {
	return time.Now() // want: dettaint
}

func init() {
	lastTick = time.Now() // want: dettaint
}

var lastTick time.Time

func init() {
	_ = started
}
