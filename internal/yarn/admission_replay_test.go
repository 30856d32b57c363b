package yarn_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/digesttest"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// TestAdmissionReplay pins the scheduler's every decision — the event log
// and the obs snapshot, byte for byte — on seeded scenarios built to reach
// the admission paths E12's trace does not: memory-bound nodes (vcores
// free on one node, memory on another), 0-vcore requests, locality hosts,
// users at their limit, queues at their ceiling, withdrawn requests, node
// drains under a live AM, preemption and autoscaling, and AppMasters that
// Request and Release from inside OnAllocated. The digests in
// testdata/admission_replay.sha256 were recorded at 24752f6, the commit
// before a scheduling pass stopped re-walking what it cannot place; an
// edit to the allocation path must not move one of them.
func TestAdmissionReplay(t *testing.T) {
	pinned := digesttest.Read(t, "testdata/admission_replay.sha256")
	sum := admissionStats{}
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			log, snap, st := admissionScenario(t, seed)
			digesttest.Assert(t, pinned, fmt.Sprintf("admission-seed%d", seed), log, snap)
			for k, n := range st {
				sum[k] += n
			}
		})
	}
	// Keep the generator honest: over the pinned seeds every path the
	// scenarios exist for is taken.
	for _, k := range []string{
		"preemptions", "scale-ups", "AM containers lost to a node drain",
		"samples with apps pending", "cancelled requests",
		"requests made inside OnAllocated", "releases made inside OnAllocated",
		"grants on a preferred host", "0-vcore grants",
	} {
		if sum[k] == 0 {
			t.Errorf("no scenario reached: %s", k)
		}
	}
	t.Logf("reached over all seeds: %v", sum)
}

// admissionStats counts, by name, what a scenario reached.
type admissionStats map[string]int

// admissionQueues has ceilings and user limits tight enough to bind.
func admissionQueues() yarn.QueueConfig {
	return yarn.QueueConfig{
		Name: "root",
		Children: []yarn.QueueConfig{
			{Name: "alpha", Capacity: 0.4, MaxCapacity: 0.5, UserLimitFactor: 1},
			{Name: "beta", Capacity: 0.4, MaxCapacity: 0.9, UserLimitFactor: 2},
			{Name: "default", Capacity: 0.2, MaxCapacity: 0.6, UserLimitFactor: 1},
		},
	}
}

// admissionShapes mixes containers that exhaust a node's vcores with ones
// that exhaust its memory (nodes are 16 vc / 16 GB), so a full cluster
// has vcores free on one node and memory free on another.
var admissionShapes = []yarn.Resource{
	{VCores: 1, MemoryMB: 1024},
	{VCores: 6, MemoryMB: 512},
	{VCores: 1, MemoryMB: 6 << 10},
	{VCores: 0, MemoryMB: 2048},
	{VCores: 3, MemoryMB: 3 << 10},
}

// admissionScenario runs one seeded scenario to completion and returns
// the scheduler's event log, the obs snapshot and what the run reached.
func admissionScenario(t *testing.T, seed int64) (log, snap []byte, st admissionStats) {
	t.Helper()
	st = admissionStats{}
	rng := sim.NewRand(seed).Derive("admission")
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	cfg := cluster.PaperNodeConfig(6, 2)
	cfg.RAMPerNode = 16 << 30
	topo := cluster.NewTopology(cfg)
	rm, err := yarn.NewCapacityResourceManager(eng, topo, yarn.CapacityOptions{
		Queues:     admissionQueues(),
		Preemption: yarn.PreemptionConfig{Enabled: true, MaxPerRound: 2 + rng.Intn(6)},
		Autoscale:  yarn.AutoscaleConfig{Enabled: true, MinNodes: 2 + rng.Intn(3)},
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]string, 0, topo.Len()+1)
	for _, n := range topo.Nodes() {
		hosts = append(hosts, n.Hostname)
	}
	hosts = append(hosts, "nowhere")

	const window = 20 * time.Minute
	queues := []string{"alpha", "beta", "default"}
	var masters []*scriptedMaster
	for i := 0; i < 36; i++ {
		spec := yarn.AppSpec{
			Name:  fmt.Sprintf("app-%02d", i),
			User:  fmt.Sprintf("u%d", rng.Intn(3)),
			Queue: queues[rng.Intn(len(queues))],
		}
		if rng.Intn(4) == 0 {
			spec.AMResource = yarn.Resource{VCores: 2, MemoryMB: 2048}
		}
		at := sim.Time(rng.Intn(int(window/time.Second))) * sim.Time(time.Second)
		if i%3 == 0 {
			// The built-in task driver: every request enqueued at submission.
			for j, n := 0, 1+rng.Intn(12); j < n; j++ {
				spec.Tasks = append(spec.Tasks, yarn.TaskSpec{
					Resource: admissionShapes[rng.Intn(len(admissionShapes))],
					Duration: time.Duration(20+rng.Intn(200)) * time.Second,
				})
			}
			eng.Schedule(at, func() {
				if _, err := rm.Submit(spec); err != nil {
					t.Errorf("submit %s: %v", spec.Name, err)
				}
			})
			continue
		}
		m := &scriptedMaster{
			t: t, eng: eng, rm: rm, hosts: hosts, st: st,
			rng:   rng.Derive(spec.Name),
			total: 2 + rng.Intn(14),
		}
		masters = append(masters, m)
		eng.Schedule(at, func() {
			app, err := rm.SubmitManaged(spec, m)
			if err != nil {
				t.Errorf("submit %s: %v", spec.Name, err)
				return
			}
			m.start(app)
		})
		if rng.Intn(2) == 0 {
			eng.Schedule(at+sim.Time(10+rng.Intn(120))*sim.Time(time.Second), m.cancelSome)
		}
	}
	// Node drains and returns; the first one takes the node under a live AM.
	for i, n := 0, 3+rng.Intn(4); i < n; i++ {
		at := sim.Time(2*time.Minute) + sim.Time(rng.Intn(int((window-2*time.Minute)/time.Second)))*sim.Time(time.Second)
		id := cluster.NodeID(rng.Intn(topo.Len()))
		underAM := i == 0
		eng.Schedule(at, func() {
			if underAM {
				for _, app := range rm.Apps() {
					if app.State == yarn.AppRunning {
						id = amNode(t, rm, app)
						break
					}
				}
			}
			before := pendingCount(rm)
			rm.SetNodeActive(id, false)
			if pendingCount(rm) > before {
				st["AM containers lost to a node drain"]++
			}
		})
		eng.Schedule(at+sim.Time(1+rng.Intn(5))*sim.Time(time.Minute), func() { rm.SetNodeActive(id, true) })
	}

	gauge := reg.Gauge("rm.pending_apps")
	sample := func() {
		p := pendingCount(rm)
		if got := gauge.Value(); got != int64(p) {
			t.Fatalf("@%v: rm.pending_apps gauge %d, %d apps are pending", time.Duration(eng.Now()), got, p)
		}
		if p > 0 {
			st["samples with apps pending"]++
		}
	}
	for step := 0; eng.Now() < sim.Time(window) || !rm.AllFinished(); step++ {
		if step > 4000 {
			t.Fatalf("scenario did not drain by %v", time.Duration(eng.Now()))
		}
		eng.Advance(15 * time.Second)
		sample()
	}

	events := rm.EventLog().Events()
	if err := yarn.CheckLog(events); err != nil {
		t.Fatalf("event log violates scheduler invariants: %v", err)
	}
	for _, ev := range events {
		if ev.Type == yarn.EvAlloc && ev.Attrs["vc"] == "0" {
			st["0-vcore grants"]++
		}
	}
	for _, m := range masters {
		if m.app == nil || m.app.State != yarn.AppFinished {
			t.Fatalf("a managed app never finished: %+v", m.app)
		}
	}
	if u := rm.Utilization(); u != 0 {
		t.Fatalf("resources leaked: utilization %.3f after drain", u)
	}
	st["preemptions"] = rm.Preemptions()
	st["scale-ups"] = int(reg.CounterValue("rm.scale_ups"))
	if log, err = rm.EventLog().Bytes(); err != nil {
		t.Fatal(err)
	}
	if snap, err = reg.SnapshotJSON(); err != nil {
		t.Fatal(err)
	}
	return log, snap, st
}

func pendingCount(rm *yarn.ResourceManager) int {
	n := 0
	for _, app := range rm.Apps() {
		if app.State == yarn.AppPending {
			n++
		}
	}
	return n
}

// amNode reads the node of app's latest AM grant off the event log.
func amNode(t *testing.T, rm *yarn.ResourceManager, app *yarn.Application) cluster.NodeID {
	t.Helper()
	node := -1
	for _, ev := range rm.EventLog().Events() {
		if ev.Type == yarn.EvAMStart && ev.Attrs["app"] == fmt.Sprintf("app%05d", app.ID) {
			if _, err := fmt.Sscan(ev.Attrs["node"], &node); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cluster.NodeID(node)
}

// scriptedMaster is an external AppMaster with total units of work, one
// container each. It asks for a first burst at submission and for the
// rest from inside the scheduler's callbacks, hands containers back from
// inside OnAllocated, withdraws requests, and re-requests what it loses.
type scriptedMaster struct {
	t     *testing.T
	eng   *sim.Engine
	rm    *yarn.ResourceManager
	rng   *sim.Rand
	hosts []string // by node id, then one name no node has
	st    admissionStats

	app                    *yarn.Application
	total, requested, done int
	held                   []*yarn.Container
	// outstanding mirrors the RM's per-app request queue: grants must come
	// off its front, withdrawals off its back.
	outstanding []yarn.ContainerRequest
}

func (m *scriptedMaster) start(app *yarn.Application) {
	m.app = app
	for i, n := 0, 1+m.rng.Intn(m.total); i < n; i++ {
		m.request()
	}
}

func (m *scriptedMaster) request() {
	req := yarn.ContainerRequest{
		Resource: admissionShapes[m.rng.Intn(len(admissionShapes))],
		Tag:      fmt.Sprint("t", m.rng.Intn(3)),
	}
	for i, n := 0, m.rng.Intn(3); i < n; i++ {
		req.Hosts = append(req.Hosts, m.hosts[m.rng.Intn(len(m.hosts))])
	}
	m.requested++
	m.outstanding = append(m.outstanding, req)
	m.rm.Request(m.app, req)
}

func (m *scriptedMaster) OnAllocated(c *yarn.Container) {
	req := m.outstanding[0]
	m.outstanding = m.outstanding[1:]
	if c.Tag != req.Tag || c.Resource != req.Resource {
		m.t.Errorf("%s: granted %v tag %q, the head request was %v tag %q", m.app.Spec.Name, c.Resource, c.Tag, req.Resource, req.Tag)
	}
	for _, h := range req.Hosts {
		if h == m.hosts[c.Node] {
			m.st["grants on a preferred host"]++
			break
		}
	}
	if m.requested < m.total && m.rng.Intn(3) == 0 {
		m.st["requests made inside OnAllocated"]++
		m.request()
	}
	if len(m.held) > 0 && m.rng.Intn(4) == 0 {
		m.st["releases made inside OnAllocated"]++
		m.finishUnit(m.held[0], "early")
	}
	m.held = append(m.held, c)
	m.eng.After(time.Duration(15+m.rng.Intn(180))*time.Second, func() {
		if !c.Released() {
			m.finishUnit(c, "complete")
		}
	})
}

func (m *scriptedMaster) OnPreempted(c *yarn.Container) {
	m.drop(c)
	m.requested--
	m.request()
}

func (m *scriptedMaster) drop(c *yarn.Container) {
	for i, h := range m.held {
		if h == c {
			m.held = append(m.held[:i], m.held[i+1:]...)
			return
		}
	}
}

// finishUnit hands c back, asks for the next unit, and finishes the app
// after the last one.
func (m *scriptedMaster) finishUnit(c *yarn.Container, reason string) {
	m.drop(c)
	m.done++
	m.rm.Release(c, reason)
	if m.requested < m.total {
		m.request()
	}
	m.maybeFinish()
}

func (m *scriptedMaster) maybeFinish() {
	if m.done == m.total {
		m.rm.FinishApp(m.app)
	}
}

// cancelSome withdraws up to three outstanding requests of one tag: that
// work "completed another way".
func (m *scriptedMaster) cancelSome() {
	if m.app == nil || m.app.State == yarn.AppFinished {
		return
	}
	tag, want := fmt.Sprint("t", m.rng.Intn(3)), 1+m.rng.Intn(3)
	n := m.rm.CancelRequests(m.app, tag, want)
	for i, left := len(m.outstanding)-1, n; i >= 0 && left > 0; i-- {
		if m.outstanding[i].Tag == tag {
			m.outstanding = append(m.outstanding[:i], m.outstanding[i+1:]...)
			left--
		}
	}
	m.st["cancelled requests"] += n
	m.total -= n
	m.requested -= n
	if m.requested < m.total {
		m.request()
	}
	m.maybeFinish()
}

// nopMaster is an AppMaster the test drives by hand.
type nopMaster struct{ got []*yarn.Container }

func (m *nopMaster) OnAllocated(c *yarn.Container) { m.got = append(m.got, c) }
func (m *nopMaster) OnPreempted(*yarn.Container)   {}

// TestFinishWhilePendingLeavesNoPendingApp walks one app through every
// state transition the rm.pending_apps gauge counts, including the one no
// seeded scenario reaches: an app whose AM was lost to a node drain, and
// cannot be placed again, is finished by its master while still pending.
func TestFinishWhilePendingLeavesNoPendingApp(t *testing.T) {
	reg := obs.NewRegistry()
	_, rm := newCapRM(t, 2, yarn.CapacityOptions{Obs: reg})
	gauge := reg.Gauge("rm.pending_apps")
	check := func(when string, want int, finished bool) {
		t.Helper()
		if got, n := gauge.Value(), pendingCount(rm); got != int64(want) || n != want {
			t.Fatalf("%s: gauge %d, %d apps pending, want %d", when, got, n, want)
		}
		if rm.AllFinished() != finished {
			t.Fatalf("%s: AllFinished = %v", when, !finished)
		}
	}
	check("empty RM", 0, true)
	m := &nopMaster{}
	app, err := rm.SubmitManaged(yarn.AppSpec{Name: "a", User: "u", AMResource: yarn.Resource{VCores: 10, MemoryMB: 1024}}, m)
	if err != nil {
		t.Fatal(err)
	}
	check("AM granted at submission", 0, false)
	rm.Request(app, yarn.ContainerRequest{Resource: yarn.Resource{VCores: 10, MemoryMB: 1024}})
	if len(m.got) != 1 || m.got[0].Node == amNode(t, rm, app) {
		t.Fatalf("the 10-vcore task should sit on the node the 10-vcore AM is not on: %+v", m.got)
	}
	// The other node has 6 vcores free: the AM cannot come back.
	rm.SetNodeActive(amNode(t, rm, app), false)
	if app.State != yarn.AppPending {
		t.Fatalf("state after losing the AM = %v", app.State)
	}
	check("AM lost to a drain", 1, false)
	rm.Release(m.got[0], "complete")
	blocked, err := rm.SubmitManaged(yarn.AppSpec{Name: "b", User: "u", AMResource: yarn.Resource{VCores: 16, MemoryMB: 1024}}, m)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO: a's AM takes the freed node first, so b's 16-vcore AM waits.
	check("a re-admitted, b submitted behind it", 1, false)
	rm.SetNodeActive(m.got[0].Node, false)
	check("both waiting for a node", 2, false)
	rm.FinishApp(app)
	check("a finished while pending", 1, false)
	rm.FinishApp(blocked)
	check("b finished while pending", 0, true)
	if err := yarn.CheckLog(rm.EventLog().Events()); err != nil {
		t.Fatal(err)
	}
}
