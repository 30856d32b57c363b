package sim

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.After(time.Duration(j)*time.Millisecond, func() {})
		}
		e.Run()
	}
}

func BenchmarkTickerChurn(b *testing.B) {
	e := NewEngine()
	n := 0
	e.Every(time.Second, func() { n++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Advance(time.Second)
	}
}

// BenchmarkHeartbeatFleet is an idle 64-node cluster's control plane with
// empty handlers, the shape of bench/'s bare-engine probe: per node two
// heartbeats (DataNode, TaskTracker) on one period and a block report on
// another, plus the NameNode's two monitors and the JobTracker's expiry
// check. One op is one simulated hour.
func BenchmarkHeartbeatFleet(b *testing.B) {
	const heartbeat, blockReport = 3 * time.Second, 10 * time.Minute
	e := NewEngine()
	nop := func() {}
	for i := 0; i < 64; i++ {
		e.Every(heartbeat, nop)
		e.Every(blockReport, nop)
		e.Every(heartbeat, nop)
	}
	for i := 0; i < 3; i++ {
		e.Every(heartbeat, nop)
	}
	e.Advance(time.Hour) // every ticker has fired: the free list is warm
	b.ReportAllocs()
	b.ResetTimer()
	before := e.Processed
	for i := 0; i < b.N; i++ {
		e.Advance(time.Hour)
	}
	b.ReportMetric(float64(e.Processed-before)/b.Elapsed().Seconds(), "events/s")
}
