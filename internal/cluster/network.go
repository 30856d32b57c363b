package cluster

// Network is the mutable connectivity overlay on a Topology: the topology
// says what the wiring *is*, the network says which links currently work.
// Every data-plane transfer in the stack (HDFS reads and pipeline writes,
// re-replication copies, shuffle fetches) consults it, which is what lets
// the fault-injection subsystem cut a node or a whole rack off and watch
// the replication monitor and the JobTracker route around the hole.
//
// The model is island-based rather than per-link: each node belongs to a
// partition group, and two endpoints can talk iff they are in the same
// group. A healed network has every node in group 0. Off-cluster clients
// (negative NodeIDs — the login gateway) and any other id off the
// topology always sit in group 0 (Isolate ignores them), so an isolated
// node is also unreachable from outside. Control-plane traffic
// (heartbeats, block reports) is modelled separately via heartbeat-drop
// faults and deliberately does not consult the Network: real partitions
// rarely take the management VLAN down with the data path, and keeping
// the planes independent lets scenarios exercise them independently.
type Network struct {
	topo  *Topology
	group []int // by node ID
	next  int
}

// NewNetwork returns a fully healed network over the topology.
func NewNetwork(t *Topology) *Network {
	return &Network{topo: t, group: make([]int, t.Len())}
}

// Reachable reports whether a data transfer between the two endpoints can
// currently proceed. Same-node transfers always succeed.
func (n *Network) Reachable(a, b NodeID) bool {
	if n == nil || a == b {
		return true
	}
	return n.groupOf(a) == n.groupOf(b)
}

func (n *Network) groupOf(id NodeID) int {
	if id < 0 || int(id) >= len(n.group) {
		return 0 // off-cluster clients live with the majority
	}
	return n.group[id]
}

// Isolate cuts the given nodes off into their own island. Successive calls
// create further islands; nodes isolated together can still talk to each
// other. Returns the island's group id (for tests/logging).
func (n *Network) Isolate(nodes ...NodeID) int {
	n.next++
	for _, id := range nodes {
		if id >= 0 && int(id) < len(n.group) {
			n.group[id] = n.next
		}
	}
	return n.next
}

// IsolateRack cuts an entire rack off from the rest of the cluster —
// the classic top-of-rack switch failure.
func (n *Network) IsolateRack(rack int) int {
	return n.Isolate(n.topo.NodesInRack(rack)...)
}

// Heal restores full connectivity.
func (n *Network) Heal() { clear(n.group) }
