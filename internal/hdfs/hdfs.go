package hdfs

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// MiniDFS bundles a NameNode with one DataNode per topology node, all
// running on a shared sim engine — the paper's Figure 1(b) layout, where
// storage lives on the compute nodes.
type MiniDFS struct {
	Engine   *sim.Engine
	Topology *cluster.Topology
	Cost     cluster.CostModel
	NN       *NameNode
	// Net is the mutable connectivity overlay every data-plane transfer
	// consults — the injection point for partition faults.
	Net *cluster.Network
	// Obs collects every metric and span the cluster emits; one registry
	// spans NameNode, DataNodes, clients and (when layered on top) the
	// MapReduce runtime.
	Obs *obs.Registry

	datanodes []*DataNode
	cm        *clientMetrics
}

// Options configures a MiniDFS build.
type Options struct {
	Config Config
	Seed   int64
	// Cost overrides the default cost model when non-zero-valued.
	Cost *cluster.CostModel
	// MetadataFS, when set, persists the NameNode's namespace (fsimage +
	// edit log) so RestartFromDisk can rebuild it — see journal.go.
	MetadataFS vfs.FileSystem
	// Obs, when set, receives the cluster's metrics and spans; a fresh
	// registry is created otherwise.
	Obs *obs.Registry
}

// NewMiniDFS creates and starts a cluster on the engine and topology. The
// engine is advanced just far enough for every DataNode to register and
// the NameNode to leave safe mode, so the returned cluster is ready.
func NewMiniDFS(eng *sim.Engine, topo *cluster.Topology, opts Options) (*MiniDFS, error) {
	if eng == nil || topo == nil {
		return nil, fmt.Errorf("hdfs: engine and topology are required")
	}
	cost := cluster.DefaultCostModel()
	if opts.Cost != nil {
		cost = *opts.Cost
	}
	cfg := opts.Config.withDefaults()
	rng := sim.NewRand(opts.Seed).Derive("namenode")
	net := cluster.NewNetwork(topo)
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	nn := newNameNode(eng, topo, cost, cfg, rng, reg)
	nn.metaFS = opts.MetadataFS
	nn.net = net
	d := &MiniDFS{Engine: eng, Topology: topo, Cost: cost, NN: nn, Net: net, Obs: reg, cm: newClientMetrics(reg)}
	dnm := newDNMetrics(reg)
	for _, n := range topo.Nodes() {
		dn := &DataNode{
			id:     n.ID,
			node:   n,
			nn:     nn,
			eng:    eng,
			cost:   cost,
			blocks: map[BlockID]*storedBlock{},
			m:      dnm,
		}
		nn.datanodes[n.ID] = dn
		d.datanodes = append(d.datanodes, dn)
		dn.Start()
	}
	nn.start()
	// Let registrations land (empty-disk integrity scans are ~one seek).
	eng.Advance(cfg.HeartbeatInterval)
	return d, nil
}

// DataNodes returns the DataNodes in node-ID order.
func (d *MiniDFS) DataNodes() []*DataNode { return d.datanodes }

// DataNode returns the DataNode on the given node, or nil.
func (d *MiniDFS) DataNode(id cluster.NodeID) *DataNode {
	if int(id) < 0 || int(id) >= len(d.datanodes) {
		return nil
	}
	return d.datanodes[id]
}

// Client returns a client located at the given node (GatewayNode for an
// off-cluster client, e.g. the login node students staged data from).
func (d *MiniDFS) Client(from cluster.NodeID) *Client {
	return &Client{
		nn:   d.NN,
		eng:  d.Engine,
		topo: d.Topology,
		cost: d.Cost,
		net:  d.Net,
		from: from,
		m:    d.cm,
	}
}

// Fsck audits the whole filesystem.
func (d *MiniDFS) Fsck() (*FsckReport, error) { return d.NN.Fsck("/") }

// AuditLog exposes the NameNode audit log (internal/history): every
// namespace operation and block decision since startup, in sim order.
func (d *MiniDFS) AuditLog() *history.Log { return d.NN.audit }
