// Package cluster models the physical substrate the paper's two
// architectures run on (its Figure 1): machines with CPUs, RAM and local
// disks, grouped into racks behind a core switch, plus — for the typical
// HPC layout — a separate parallel storage system reachable only across
// the interconnect. All performance numbers in the reproduction derive
// from this package's cost model rather than from wall-clock time, which
// keeps experiments deterministic and lets them be evaluated at paper
// scale (171 GB datasets) while moving only megabytes of real data.
package cluster

import (
	"fmt"
)

// NodeID identifies a machine in the cluster.
type NodeID int

// Node is one machine. The default resources mirror the paper's dedicated
// cluster: dual 8-core CPUs, 64 GB RAM, 850 GB of local disk.
type Node struct {
	ID       NodeID
	Hostname string
	Rack     int
	Cores    int
	RAMBytes int64
	// DiskBytes is local disk capacity; zero for diskless HPC compute nodes.
	DiskBytes int64
}

// Topology is an immutable description of the machines and their racks.
type Topology struct {
	nodes []*Node
	racks int
}

// Config describes a topology to build.
type Config struct {
	Nodes        int
	Racks        int // nodes are assigned round-robin; min 1
	CoresPerNode int
	RAMPerNode   int64
	DiskPerNode  int64
	HostPrefix   string
}

// PaperNodeConfig returns the per-node resources of the paper's dedicated
// 8-node cluster (dual 8-core CPUs, 64 GB RAM, 850 GB HDD).
func PaperNodeConfig(nodes, racks int) Config {
	return Config{
		Nodes:        nodes,
		Racks:        racks,
		CoresPerNode: 16,
		RAMPerNode:   64 << 30,
		DiskPerNode:  850 << 30,
		HostPrefix:   "node",
	}
}

// NewTopology builds a topology from cfg. Zero-valued fields get sane
// teaching-cluster defaults.
func NewTopology(cfg Config) *Topology {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 8
	}
	if cfg.Racks <= 0 {
		cfg.Racks = 1
	}
	if cfg.Racks > cfg.Nodes {
		cfg.Racks = cfg.Nodes
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = 16
	}
	if cfg.RAMPerNode <= 0 {
		cfg.RAMPerNode = 64 << 30
	}
	if cfg.DiskPerNode == 0 {
		cfg.DiskPerNode = 850 << 30
	}
	if cfg.HostPrefix == "" {
		cfg.HostPrefix = "node"
	}
	t := &Topology{racks: cfg.Racks}
	for i := 0; i < cfg.Nodes; i++ {
		t.nodes = append(t.nodes, &Node{
			ID:        NodeID(i),
			Hostname:  fmt.Sprintf("%s%03d", cfg.HostPrefix, i),
			Rack:      i % cfg.Racks,
			Cores:     cfg.CoresPerNode,
			RAMBytes:  cfg.RAMPerNode,
			DiskBytes: cfg.DiskPerNode,
		})
	}
	return t
}

// Nodes returns all nodes in ID order. The slice must not be mutated.
func (t *Topology) Nodes() []*Node { return t.nodes }

// Node returns the node with the given ID, or nil.
func (t *Topology) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		return nil
	}
	return t.nodes[id]
}

// Len returns the node count.
func (t *Topology) Len() int { return len(t.nodes) }

// Racks returns the number of racks.
func (t *Topology) Racks() int { return t.racks }

// RackOf returns the rack index for a node ID, or -1 if unknown.
func (t *Topology) RackOf(id NodeID) int {
	n := t.Node(id)
	if n == nil {
		return -1
	}
	return n.Rack
}

// NodesInRack returns node IDs in the given rack, in ID order.
func (t *Topology) NodesInRack(rack int) []NodeID {
	var ids []NodeID
	for _, n := range t.nodes {
		if n.Rack == rack {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Distance returns the Hadoop-style network distance between two nodes:
// 0 same node, 2 same rack, 4 different rack.
func (t *Topology) Distance(a, b NodeID) int {
	if a == b {
		return 0
	}
	if t.RackOf(a) == t.RackOf(b) {
		return 2
	}
	return 4
}
