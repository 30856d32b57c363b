package yarn_test

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/yarn"
)

// fullCluster fills a fixed 16-node FIFO pool to its last vcore with one
// app's containers, then submits blocked more apps whose AMs cannot be
// placed. It returns the RM, the app holding the cluster and its
// containers.
func fullCluster(tb testing.TB, blocked int) (*yarn.ResourceManager, *yarn.Application, *nopMaster) {
	tb.Helper()
	_, rm := newCapRM(tb, 16, yarn.CapacityOptions{Obs: obs.NewRegistry()})
	m := &nopMaster{}
	holder, err := rm.SubmitManaged(yarn.AppSpec{Name: "holder", User: "h"}, m)
	if err != nil {
		tb.Fatal(err)
	}
	one := yarn.ContainerRequest{Resource: yarn.Resource{VCores: 1, MemoryMB: 1024}}
	for rm.Utilization() < 1 {
		rm.Request(holder, one)
	}
	for i := 0; i < blocked; i++ {
		app, err := rm.SubmitManaged(yarn.AppSpec{Name: fmt.Sprint("blocked-", i), User: fmt.Sprint("u", i%7)}, m)
		if err != nil {
			tb.Fatal(err)
		}
		if app.State != yarn.AppPending {
			tb.Fatalf("%s was admitted to a full cluster", app.Spec.Name)
		}
	}
	return rm, holder, m
}

// BenchmarkKickFullCluster is one scheduling pass that can place nothing:
// a Request that does not fit, on a full cluster, behind N blocked apps.
// The pass must not cost more the longer the backlog is.
func BenchmarkKickFullCluster(b *testing.B) {
	for _, n := range []int{100, 2000} {
		b.Run(fmt.Sprint("blocked=", n), func(b *testing.B) {
			rm, holder, _ := fullCluster(b, n)
			req := yarn.ContainerRequest{Resource: yarn.Resource{VCores: 1, MemoryMB: 1024}, Tag: "more"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rm.Request(holder, req)
				rm.CancelRequests(holder, "more", 1)
			}
			b.StopTimer()
			if len(holder.Containers()) != 16*16-1 || holder.PendingRequests() != 0 {
				b.Fatalf("the pass placed something: %d containers, %d requests", len(holder.Containers()), holder.PendingRequests())
			}
		})
	}
}

// lifecycleOp asks for one more container and releases one the holder
// has: on a full cluster, with the holder at the head of the FIFO, that is
// exactly one release and one grant.
func lifecycleOp(rm *yarn.ResourceManager, holder *yarn.Application, m *nopMaster) {
	c := m.got[len(m.got)-1]
	m.got = m.got[:len(m.got)-1]
	rm.Request(holder, yarn.ContainerRequest{Resource: c.Resource, Tag: "again"})
	rm.Release(c, "complete")
}

// BenchmarkContainerLifecycle is the per-container cost of the RM's
// bookkeeping: one release and one grant, each with its event, and the
// container's span.
func BenchmarkContainerLifecycle(b *testing.B) {
	var rm *yarn.ResourceManager
	var holder *yarn.Application
	var m *nopMaster
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%20000 == 0 { // bound what the event log and the span list hold
			b.StopTimer()
			rm, holder, m = fullCluster(b, 100)
			b.StartTimer()
		}
		lifecycleOp(rm, holder, m)
	}
}

// TestContainerLifecycleAllocationBudget pins what a grant plus a release
// may allocate — the container and its id string, the two event maps and
// the span map, the formatted memory size, the growth of the log and span
// lists: 11 allocations measured, budgeted with a fifth of headroom. The
// code before it formatted each id three to four times per container and
// sorted the leaves through reflection on every pass: 27.
func TestContainerLifecycleAllocationBudget(t *testing.T) {
	rm, holder, m := fullCluster(t, 100)
	before := len(rm.EventLog().Events())
	avg := testing.AllocsPerRun(500, func() { lifecycleOp(rm, holder, m) })
	if got := len(rm.EventLog().Events()) - before; got != 2*501 {
		t.Fatalf("%d events for 501 release+grant pairs", got)
	}
	const budget = 13
	if avg > budget {
		t.Fatalf("a release plus a grant allocates %.1f times, budget %d", avg, budget)
	}
	t.Logf("%.1f allocations per release+grant", avg)
}
