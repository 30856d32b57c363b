package dirty

import "time"

// suppressedPreceding shows a directive on the line above the finding:
// the dettaint diagnostic for its time.Now is silenced, and exactly
// that one — notSuppressed below still fires.
func suppressedPreceding() time.Time {
	//lint:ignore dettaint fixture: demonstrates a justified suppression
	return time.Now()
}

func suppressedTrailing() time.Time {
	return time.Now() //lint:ignore dettaint fixture: trailing directive on the flagged line
}

func notSuppressed() time.Time {
	return time.Now() // want: dettaint
}

func wrongRule() time.Time {
	//lint:ignore maporder this names the wrong rule, so both fire (want: unused-ignore)
	return time.Now() // want: dettaint
}

//lint:ignore dettaint stale: nothing on the next line reads the clock (want: unused-ignore)
func staleDirective() {}
