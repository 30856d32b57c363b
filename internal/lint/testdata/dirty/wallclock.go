// Package dirty is a lint fixture: every construct the suite must flag,
// with each flagged line annotated by an expected-diagnostic comment
// naming the rule. The lint tests compare the suite's output against
// these annotations in both directions.
package dirty

import "time"

func wallNow() time.Duration {
	start := time.Now()          // want: dettaint
	time.Sleep(time.Millisecond) // want: dettaint
	<-time.After(time.Second)    // want: dettaint
	t := time.NewTimer(0)        // want: dettaint
	t.Stop()
	return time.Since(start) // want: dettaint
}

func durationsAllowed() time.Duration {
	// Duration arithmetic and constants never touch the wall clock; the
	// sim engine's instants are durations themselves.
	d := 3 * time.Second
	return d.Round(time.Millisecond)
}
