// Package core is the public facade of the minihadoop teaching stack: one
// call builds a complete simulated Hadoop cluster — topology, HDFS,
// MapReduce runtime — ready for data staging and job submission. It is
// the API the examples, the command-line tools and the experiment harness
// all build on.
package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrcluster"
	"repro/internal/obs"
	"repro/internal/regionserver"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/yarn"
)

// Options configures a MiniCluster. The zero value gives the paper's
// dedicated teaching cluster: 8 nodes in one rack, dual 8-core CPUs,
// 64 GB RAM, 850 GB local disk, 3-way replication.
type Options struct {
	Nodes int
	Racks int
	Seed  int64
	HDFS  hdfs.Config
	MR    mrcluster.Config
	// Cost overrides the default hardware cost model.
	Cost *cluster.CostModel
	// MetadataFS, when set, persists the NameNode namespace (fsimage +
	// edit log) for cold-start recovery.
	MetadataFS vfs.FileSystem
	// YARN, when set, builds a capacity ResourceManager over the cluster
	// and runs the JobTracker as a YARN application: jobs negotiate task
	// containers through capacity queues instead of per-node slots.
	YARN *yarn.CapacityOptions
	// Serving, when set, starts the online-serving tier (region servers +
	// master) on the cluster nodes, sharing the engine and obs registry.
	// Region data lives on its own in-memory store, standing in for the
	// serving tier's HDFS-backed store files.
	Serving *regionserver.Options
}

// MiniCluster is a fully assembled simulated Hadoop deployment.
type MiniCluster struct {
	Engine   *sim.Engine
	Topology *cluster.Topology
	DFS      *hdfs.MiniDFS
	MR       *mrcluster.MRCluster
	// RM is the YARN capacity ResourceManager (nil unless Options.YARN).
	RM *yarn.ResourceManager
	// Serving is the online region-server tier (nil unless
	// Options.Serving).
	Serving *regionserver.Cluster
	// Obs is the cluster-wide observability registry: every metric and
	// span the HDFS and MapReduce layers emit lands here.
	Obs *obs.Registry
}

// New builds and starts a cluster.
func New(opts Options) (*MiniCluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 8
	}
	if opts.Racks <= 0 {
		opts.Racks = 1
	}
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(opts.Nodes, opts.Racks))
	dfs, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{
		Config:     opts.HDFS,
		Seed:       opts.Seed,
		Cost:       opts.Cost,
		MetadataFS: opts.MetadataFS,
	})
	if err != nil {
		return nil, err
	}
	var rm *yarn.ResourceManager
	if opts.YARN != nil {
		yopts := *opts.YARN
		if yopts.Obs == nil {
			yopts.Obs = dfs.Obs
		}
		rm, err = yarn.NewCapacityResourceManager(eng, topo, yopts)
		if err != nil {
			return nil, err
		}
		opts.MR.YARN = rm
	}
	mc := mrcluster.NewMRCluster(dfs, opts.MR, opts.Seed+1)
	var serving *regionserver.Cluster
	if opts.Serving != nil {
		sopts := *opts.Serving
		if sopts.Obs == nil {
			sopts.Obs = dfs.Obs
		}
		serving, err = regionserver.New(eng, vfs.NewMemFS(), topo, sopts)
		if err != nil {
			return nil, err
		}
	}
	return &MiniCluster{Engine: eng, Topology: topo, DFS: dfs, MR: mc, RM: rm, Serving: serving, Obs: dfs.Obs}, nil
}

// FS returns a gateway (off-cluster) HDFS client — the login node view.
func (c *MiniCluster) FS() *hdfs.Client { return c.DFS.Client(hdfs.GatewayNode) }

// NodeFS returns an HDFS client located on a cluster node.
func (c *MiniCluster) NodeFS(id cluster.NodeID) *hdfs.Client { return c.DFS.Client(id) }

// Run submits a job and drives the simulation to completion.
func (c *MiniCluster) Run(job *mapreduce.Job) (*mrcluster.Report, error) {
	return c.MR.Run(job)
}

// Shell returns an fs-command shell over the cluster, with local as the
// other side of put/get.
func (c *MiniCluster) Shell(local vfs.FileSystem, out io.Writer) *shell.Shell {
	return &shell.Shell{FS: c.FS(), Local: local, Out: out, User: "student"}
}

// Fsck audits the whole filesystem.
func (c *MiniCluster) Fsck() (*hdfs.FsckReport, error) { return c.DFS.Fsck() }

// Output reads back a completed job's part files as text (see
// mapreduce.ReadOutput).
func (c *MiniCluster) Output(outputPath string) (string, error) {
	return mapreduce.ReadOutput(c.FS(), outputPath)
}

// RenderTopology regenerates the paper's Figure 2 from live cluster
// state: the NameNode/JobTracker pair, the DataNode/TaskTracker daemons
// on every machine, and the mapping from HDFS files through blocks to
// the physical blk_ files on each node's local filesystem.
func (c *MiniCluster) RenderTopology() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== HDFS / MapReduce component topology (Figure 2) ===\n\n")
	fmt.Fprintf(&b, "[NameNode]    block metadata lives in memory; %d live DataNodes report blocks\n",
		len(c.DFS.NN.LiveDataNodes()))
	fmt.Fprintf(&b, "[JobTracker]  receives block locations from NameNode; assigns tasks by locality\n\n")

	// Namespace → blocks → nodes.
	fmt.Fprintf(&b, "HDFS abstraction (directories/files -> blocks):\n")
	var walk func(path string, depth int)
	walk = func(path string, depth int) {
		infos, err := c.FS().List(path)
		if err != nil {
			return
		}
		for _, fi := range infos {
			indent := strings.Repeat("  ", depth+1)
			if fi.IsDir {
				fmt.Fprintf(&b, "%s%s/\n", indent, fi.Name())
				walk(fi.Path, depth+1)
				continue
			}
			locs, err := c.FS().BlockLocations(fi.Path)
			if err != nil {
				continue
			}
			fmt.Fprintf(&b, "%s%s (%d bytes, %d block(s), repl=%d)\n",
				indent, fi.Name(), fi.Size, len(locs), fi.Replication)
			for _, loc := range locs {
				fmt.Fprintf(&b, "%s  %v -> %s\n", indent, loc.Block, strings.Join(loc.Hosts, ", "))
			}
		}
	}
	walk("/", 0)

	fmt.Fprintf(&b, "\nPhysical view (per machine: daemons + blk_ files on the Linux FS):\n")
	for _, n := range c.Topology.Nodes() {
		dn := c.DFS.DataNode(n.ID)
		tt := c.MR.TaskTracker(n.ID)
		dnState, ttState := "DOWN", "DOWN"
		if dn != nil && dn.Alive() {
			dnState = "up"
		}
		if tt != nil && tt.Alive() {
			ttState = "up"
		}
		fmt.Fprintf(&b, "  %s (rack %d): DataNode[%s] TaskTracker[%s]", n.Hostname, n.Rack, dnState, ttState)
		if dn != nil {
			fmt.Fprintf(&b, "  %d block(s), %d bytes used", dn.NumBlocks(), dn.UsedBytes())
		}
		b.WriteByte('\n')
		if dn != nil {
			for _, bid := range dn.BlockIDs() {
				fmt.Fprintf(&b, "      /hadoop/dfs/data/current/%v\n", bid)
			}
		}
	}
	fmt.Fprintf(&b, "\nTaskTrackers report progress to JobTracker; DataNodes heartbeat to NameNode.\n")
	return b.String()
}
