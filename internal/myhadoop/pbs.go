// Package myhadoop models the course's final computing platform: dynamic
// per-student Hadoop clusters provisioned on a shared HPC supercomputer
// through a PBS-style batch scheduler, in the manner of the San Diego
// Supercomputing Center's myHadoop scripts. It reproduces the paper's
// operational phenomena: node reservations with walltimes, daemon port
// binding, orphaned ("ghost") daemons left by students who exit without
// stopping Hadoop, the 15-minute scheduler clean-up cycle, and the rule
// that students may kill their own orphaned daemons but must wait out
// everyone else's.
package myhadoop

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Standard Hadoop 1.x daemon ports.
const (
	PortNameNode    = 50070
	PortJobTracker  = 50030
	PortDataNode    = 50010
	PortTaskTracker = 50060
)

// Daemon is a long-running Hadoop process bound to a port on a node.
type Daemon struct {
	Kind  string // "namenode", "jobtracker", "datanode", "tasktracker"
	Port  int
	Owner string

	// kill stops the process behind the binding — its heartbeats and
	// monitors on the shared engine. Provision sets it once the private
	// cluster is up; nil until then.
	kill func()
}

type nodeState struct {
	id         cluster.NodeID
	reservedBy *Reservation
	ports      map[int]*Daemon
}

// killDaemon ends the daemon bound to port: the binding goes, and so does
// the process that held it.
func (ns *nodeState) killDaemon(port int) {
	d := ns.ports[port]
	delete(ns.ports, port)
	if d.kill != nil {
		d.kill()
	}
}

// ResState tracks a reservation through its lifecycle.
type ResState int

// Reservation states.
const (
	ResQueued ResState = iota
	ResRunning
	ResDone
)

// Reservation is one PBS job: a user holding nodes for a walltime.
type Reservation struct {
	User     string
	Nodes    int
	Walltime time.Duration

	State     ResState
	Allocated []cluster.NodeID
	StartedAt sim.Time

	expiry sim.Timer
	// StoppedCleanly records whether the user stopped their daemons
	// before the reservation ended.
	StoppedCleanly bool
}

// PBS is the batch scheduler managing the shared node pool.
type PBS struct {
	Engine *sim.Engine
	Topo   *cluster.Topology
	// CleanupInterval is how often the scheduler's clean-up script kills
	// orphaned daemons on free nodes (the paper's ~15 minutes).
	CleanupInterval time.Duration

	nodes map[cluster.NodeID]*nodeState
	queue []*Reservation

	// OrphansKilled counts ghost daemons removed by the clean-up cycle.
	OrphansKilled int
}

// NewPBS builds a scheduler over the topology and arms the cleanup cycle.
func NewPBS(eng *sim.Engine, topo *cluster.Topology, cleanup time.Duration) *PBS {
	if cleanup <= 0 {
		cleanup = 15 * time.Minute
	}
	p := &PBS{
		Engine:          eng,
		Topo:            topo,
		CleanupInterval: cleanup,
		nodes:           map[cluster.NodeID]*nodeState{},
	}
	for _, n := range topo.Nodes() {
		p.nodes[n.ID] = &nodeState{id: n.ID, ports: map[int]*Daemon{}}
	}
	eng.Every(cleanup, p.cleanupOrphans)
	return p
}

// FreeNodes returns the currently unreserved node IDs, sorted.
func (p *PBS) FreeNodes() []cluster.NodeID {
	var out []cluster.NodeID
	for id, ns := range p.nodes {
		if ns.reservedBy == nil {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Submit requests nodes for a walltime. The reservation starts
// immediately when enough nodes are free, otherwise it queues FIFO.
func (p *PBS) Submit(user string, nodes int, walltime time.Duration) (*Reservation, error) {
	if nodes <= 0 || nodes > p.Topo.Len() {
		return nil, fmt.Errorf("myhadoop: cannot reserve %d of %d nodes", nodes, p.Topo.Len())
	}
	r := &Reservation{User: user, Nodes: nodes, Walltime: walltime, State: ResQueued}
	p.queue = append(p.queue, r)
	p.tryStart()
	return r, nil
}

func (p *PBS) tryStart() {
	for len(p.queue) > 0 {
		r := p.queue[0]
		free := p.FreeNodes()
		if len(free) < r.Nodes {
			return // FIFO: head of queue blocks
		}
		p.queue = p.queue[1:]
		r.Allocated = free[:r.Nodes]
		for _, id := range r.Allocated {
			p.nodes[id].reservedBy = r
		}
		r.State = ResRunning
		r.StartedAt = p.Engine.Now()
		res := r
		r.expiry = p.Engine.After(r.Walltime, func() {
			// Walltime exceeded: the scheduler evicts the job. Daemons
			// that were not stopped become orphans on the freed nodes.
			p.release(res)
		})
	}
}

// Release ends a reservation early (the user's job script finished).
func (p *PBS) Release(r *Reservation) {
	r.expiry.Cancel()
	p.release(r)
}

func (p *PBS) release(r *Reservation) {
	if r.State != ResRunning {
		return
	}
	r.State = ResDone
	for _, id := range r.Allocated {
		if p.nodes[id].reservedBy == r {
			p.nodes[id].reservedBy = nil
		}
	}
	p.tryStart()
}

// Preempt evicts the most recently started reservations until n nodes are
// free — the supercomputer's policy the paper warns about: "their jobs can
// be preempted from the system by higher priority research jobs asking for
// more computational resources". Evicted students' daemons become orphans
// unless they had already stopped cleanly. Returns the evicted
// reservations.
func (p *PBS) Preempt(n int) []*Reservation {
	var evicted []*Reservation
	for len(p.FreeNodes()) < n {
		var victim *Reservation
		for _, ns := range p.nodes {
			r := ns.reservedBy
			if r == nil {
				continue
			}
			if victim == nil || r.StartedAt > victim.StartedAt {
				victim = r
			}
		}
		if victim == nil {
			break
		}
		victim.expiry.Cancel()
		p.release(victim)
		evicted = append(evicted, victim)
	}
	return evicted
}

// cleanupOrphans is the scheduler's periodic clean-up script: daemons on
// free nodes, and daemons owned by anyone other than a node's current
// reservation holder, are killed — the 15-minute wait of §II-B.
func (p *PBS) cleanupOrphans() {
	for _, n := range p.Topo.Nodes() {
		ns := p.nodes[n.ID]
		owner := ""
		if ns.reservedBy != nil {
			owner = ns.reservedBy.User
		}
		for _, d := range p.Daemons(n.ID) {
			if owner == "" || d.Owner != owner {
				ns.killDaemon(d.Port)
				p.OrphansKilled++
			}
		}
	}
}

// GhostDaemonError reports a provisioning failure caused by another
// user's orphaned daemon still holding a required port.
type GhostDaemonError struct {
	Node  cluster.NodeID
	Port  int
	Owner string
}

func (e *GhostDaemonError) Error() string {
	return fmt.Sprintf("myhadoop: port %d on node %d is bound by an orphaned daemon of user %q",
		e.Port, e.Node, e.Owner)
}

// bindDaemon binds a daemon port on a node for a reservation's user.
// A port held by the same user's orphan is killed and rebound (the paper:
// "if the orphaned daemons belonged to the same student, they could be
// terminated individually"); another user's orphan is fatal.
func (p *PBS) bindDaemon(r *Reservation, node cluster.NodeID, kind string, port int) (*Daemon, error) {
	ns := p.nodes[node]
	if ns == nil || ns.reservedBy != r {
		return nil, fmt.Errorf("myhadoop: node %d is not reserved by %s", node, r.User)
	}
	if d, busy := ns.ports[port]; busy {
		if d.Owner != r.User {
			return nil, &GhostDaemonError{Node: node, Port: port, Owner: d.Owner}
		}
		ns.killDaemon(port) // kill own ghost
	}
	d := &Daemon{Kind: kind, Port: port, Owner: r.User}
	ns.ports[port] = d
	return d, nil
}

// unbindDaemon stops a daemon and releases its port, if it still owns it.
func (p *PBS) unbindDaemon(node cluster.NodeID, d *Daemon) {
	ns := p.nodes[node]
	if ns != nil && ns.ports[d.Port] == d {
		ns.killDaemon(d.Port)
	}
}

// Daemons lists the daemons currently bound on a node, sorted by port.
func (p *PBS) Daemons(node cluster.NodeID) []*Daemon {
	ns := p.nodes[node]
	if ns == nil {
		return nil
	}
	out := make([]*Daemon, 0, len(ns.ports))
	for _, d := range ns.ports {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Port < out[j].Port })
	return out
}
