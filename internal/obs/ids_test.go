package obs

import (
	"fmt"
	"testing"
	"time"
)

// TestIDsMatchSprintf pins the zero-padded ids — trace ids and the YARN
// container and app ids built with AppendPadded — to the strings fmt
// wrote for them, past the padding width too.
func TestIDsMatchSprintf(t *testing.T) {
	const late = 1<<62 + 5
	type idCase struct{ got, want string }
	var cases []idCase
	for _, n := range []uint64{0, 1, 9, 10, 42, 99999, 100000, 999999, 1000000, 1234567, 98765432} {
		cases = append(cases,
			idCase{string(AppendPadded([]byte("c"), n, 6)), fmt.Sprintf("c%06d", n)},
			idCase{string(AppendPadded([]byte("app"), n, 5)), fmt.Sprintf("app%05d", n)},
			idCase{string(AppendPadded(nil, n, 1)), fmt.Sprint(n)},
			idCase{string(traceID(n, 0)), fmt.Sprintf("t%06d-0", n)},
			idCase{string(traceID(n, late)), fmt.Sprintf("t%06d-%d", n, late)},
		)
	}
	cases = append(cases,
		idCase{string(AppendPadded([]byte("c"), 42, 6)), "c000042"},
		idCase{string(AppendPadded([]byte("c"), 1234567, 6)), "c1234567"},
		idCase{string(traceID(2, 3*time.Second)), "t000002-3000000000"},
		idCase{string(traceID(1234567, 5)), "t1234567-5"},
	)
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
