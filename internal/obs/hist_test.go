package obs

import (
	"math"
	"testing"
	"time"
)

// histBucketLoop is the bucket search histBucket replaced: walk the
// bounds up from 1µs until one holds d.
func histBucketLoop(d time.Duration) int {
	i := 0
	for i < histBuckets-1 && int64(d) > histBound(i) {
		i++
	}
	return i
}

func TestHistBucketMatchesTheBoundWalk(t *testing.T) {
	ds := []time.Duration{0, -1, -time.Hour, math.MinInt64, math.MaxInt64, 1, 999}
	for i := 0; i < histBuckets; i++ {
		b := time.Microsecond << i
		ds = append(ds, b-1, b, b+1)
	}
	for _, d := range ds {
		if got, want := histBucket(d), histBucketLoop(d); got != want {
			t.Errorf("histBucket(%d) = %d, the bound walk gives %d", int64(d), got, want)
		}
	}
}
