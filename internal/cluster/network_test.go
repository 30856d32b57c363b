package cluster_test

import (
	"slices"
	"testing"

	"repro/internal/cluster"
)

// cutOff lists the nodes of an n-node network that the off-cluster
// gateway (NodeID -1) cannot reach.
func cutOff(net *cluster.Network, n int) []cluster.NodeID {
	var out []cluster.NodeID
	for id := cluster.NodeID(0); id < cluster.NodeID(n); id++ {
		if !net.Reachable(-1, id) {
			out = append(out, id)
		}
	}
	return out
}

func TestNetworkIslands(t *testing.T) {
	topo := cluster.NewTopology(cluster.Config{Nodes: 6, Racks: 2})
	net := cluster.NewNetwork(topo)

	if got := cutOff(net, 6); got != nil {
		t.Fatalf("fresh network cuts off %v", got)
	}
	if !net.Reachable(0, 5) || !net.Reachable(cluster.NodeID(-1), 3) {
		t.Fatal("healed network should connect everything")
	}

	net.Isolate(3)
	if net.Reachable(0, 3) || net.Reachable(cluster.NodeID(-1), 3) {
		t.Fatal("isolated node still reachable")
	}
	if !net.Reachable(3, 3) {
		t.Fatal("same-node transfer must always work")
	}
	if !net.Reachable(0, 1) {
		t.Fatal("majority side broken by isolating one node")
	}
	if got := cutOff(net, 6); !slices.Equal(got, []cluster.NodeID{3}) {
		t.Fatalf("cut off = %v, want [3]", got)
	}

	// A second island cannot talk to the first.
	net.Isolate(4, 5)
	if net.Reachable(3, 4) {
		t.Fatal("separate islands can talk")
	}
	if !net.Reachable(4, 5) {
		t.Fatal("nodes isolated together should still talk to each other")
	}

	net.Heal()
	if got := cutOff(net, 6); got != nil || !net.Reachable(3, 4) {
		t.Fatalf("heal did not restore connectivity: cut off %v", got)
	}
}

func TestNetworkIsolateRack(t *testing.T) {
	// 6 nodes round-robin over 2 racks: rack 0 = {0,2,4}, rack 1 = {1,3,5}.
	topo := cluster.NewTopology(cluster.Config{Nodes: 6, Racks: 2})
	net := cluster.NewNetwork(topo)
	net.IsolateRack(1)
	for _, id := range []cluster.NodeID{1, 3, 5} {
		if net.Reachable(0, id) {
			t.Fatalf("node %d in isolated rack reachable from rack 0", id)
		}
	}
	if !net.Reachable(1, 3) {
		t.Fatal("nodes within the isolated rack should reach each other")
	}
	if !net.Reachable(0, 2) {
		t.Fatal("surviving rack broken")
	}
}
