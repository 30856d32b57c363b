package regionserver

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Cluster bundles the serving tier: the master, the region servers, and
// the substrate they run on. It implements faultinject's Serving hook so
// NodeCrash/NodeRestart faults reach region servers.
type Cluster struct {
	Eng    *sim.Engine
	FS     vfs.FileSystem
	Topo   *cluster.Topology
	Master *Master
	Obs    *obs.Registry

	m *metrics
}

// New builds a serving cluster: opts.Servers region servers named
// rs1..rsN placed on topology nodes 1..N (node 0 is the master/gateway),
// persisting regions through fs.
func New(eng *sim.Engine, fs vfs.FileSystem, topo *cluster.Topology, opts Options) (*Cluster, error) {
	opts.defaults()
	if topo == nil {
		return nil, fmt.Errorf("regionserver: nil topology")
	}
	if topo.Len() < opts.Servers+1 {
		return nil, fmt.Errorf("regionserver: %d servers need %d nodes, topology has %d",
			opts.Servers, opts.Servers+1, topo.Len())
	}
	m := newMetrics(opts.Obs)
	kv := opts.KV
	kv.Obs = opts.Obs
	nodes := topo.Nodes()
	var servers []*Server
	for i := 0; i < opts.Servers; i++ {
		servers = append(servers, &Server{
			name:    fmt.Sprintf("rs%d", i+1),
			node:    nodes[i+1].ID,
			eng:     eng,
			fs:      fs,
			kv:      kv,
			m:       m,
			alive:   true,
			regions: map[string]*hostedRegion{},
		})
	}
	ma := newMaster(eng, fs, servers, opts, m)
	return &Cluster{
		Eng:    eng,
		FS:     fs,
		Topo:   topo,
		Master: ma,
		Obs:    opts.Obs,
		m:      m,
	}, nil
}

// Stop cancels the master's tickers.
func (c *Cluster) Stop() { c.Master.Stop() }

// NewClient returns an uncached client.
func (c *Cluster) NewClient() *Client { return newClient(c.Master, nil) }

// NewCachedClient returns a client reading through a fresh cache tier of
// `shards` LRU shards × `capacity` entries.
func (c *Cluster) NewCachedClient(shards, capacity int) *Client {
	return newClient(c.Master, newCacheTier(shards, capacity, c.m))
}

// serverOn finds the region server placed on the node (nil if none).
func (c *Cluster) serverOn(node cluster.NodeID) *Server {
	for _, s := range c.Master.servers {
		if s.node == node {
			return s
		}
	}
	return nil
}

// CrashServerOn implements faultinject.Serving: kill the region server
// on the node. Reports whether one was there to kill.
func (c *Cluster) CrashServerOn(node cluster.NodeID) bool {
	s := c.serverOn(node)
	if s == nil || !s.alive {
		return false
	}
	s.Crash()
	return true
}

// RestartServerOn implements faultinject.Serving: restart the region
// server on the node (empty; the master re-adopts it on heartbeat).
func (c *Cluster) RestartServerOn(node cluster.NodeID) bool {
	s := c.serverOn(node)
	if s == nil || s.alive {
		return false
	}
	s.Restart()
	return true
}

// StatusPage renders the serving tier for webui /serving: servers,
// per-table region maps, and the META consistency check. A region row
// ends with its open region's load or why nothing serves it (the labels
// are listed under "Observability and determinism" in docs/SERVING.md).
func (c *Cluster) StatusPage() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	ma := c.Master
	fmt.Fprintf(tw, "Region servers (%d):\n  server\tnode\tstate\tregions\tops\tbytes\n", len(ma.servers))
	for _, s := range ma.servers {
		state := "live"
		if !s.alive {
			state = "DEAD"
		}
		ops := 0
		var bytes int64
		for _, id := range s.regionIDs() {
			hr := s.regions[id]
			ops += hr.total
			bytes += hr.tbl.SizeBytes()
		}
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%d\t%d\t%d\n", s.name, s.node, state, s.RegionCount(), ops, bytes)
	}
	for _, table := range ma.Tables() {
		regions := ma.meta[table]
		fmt.Fprintf(tw, "\nTable %s (%d regions):\n  region\trange\tepoch\tserver\tstate\n", table, len(regions))
		for _, r := range regions {
			detail, srv := "unassigned", ma.byName[r.Srv]
			switch hr := ma.open(r); {
			case hr != nil:
				detail = fmt.Sprintf("ops=%d bytes=%d files=%d",
					hr.total, hr.tbl.SizeBytes(), hr.tbl.StoreFileCount())
			case srv != nil && !srv.alive:
				detail = "server dead, awaiting reassignment"
			case srv != nil:
				detail = "not open"
			}
			fmt.Fprintf(tw, "  %s\t%s\t%d\t%s\t%s\n", r.ID, r.RangeString(), r.Epoch, r.Srv, detail)
		}
	}
	if err := ma.CheckMeta(); err != nil {
		fmt.Fprintf(tw, "\nMETA check: BROKEN: %v\n", err)
	} else if len(ma.meta) > 0 {
		fmt.Fprintf(tw, "\nMETA check: ok (every table tiles the key space)\n")
	}
	if hot := c.HottestRegions(3); len(hot) > 0 {
		fmt.Fprintf(tw, "\nHottest regions (by ops):\n")
		for _, h := range hot {
			fmt.Fprintf(tw, "  %s\t%s\t%s\tops=%d\n", h.Info.ID, h.Info.RangeString(), h.Info.Srv, h.Ops)
		}
	}
	splits, merges, reassigns := int64(0), int64(0), int64(0)
	if c.Obs != nil {
		splits = c.Obs.CounterValue(MetricSplits)
		merges = c.Obs.CounterValue(MetricMerges)
		reassigns = c.Obs.CounterValue(MetricReassigns)
	}
	fmt.Fprintf(tw, "\nLifecycle: %d splits, %d merges, %d reassignments, %d META events\n",
		splits, merges, reassigns, ma.metaLog.Len())
	if start, end, n := ma.LastRecovery(); n > 0 {
		fmt.Fprintf(tw, "Last recovery: %d regions in %v (at %v)\n",
			n, (end - start).Round(time.Millisecond), start.Round(time.Millisecond))
	}
	tw.Flush()
	return b.String()
}

// RegionHeat is one row of the hot-region report.
type RegionHeat struct {
	Info RegionInfo
	Ops  int
}

// HottestRegions returns the top-n hosted regions by lifetime op count —
// the answer to Lab 9's "find the hot region".
func (c *Cluster) HottestRegions(n int) []RegionHeat {
	var heats []RegionHeat
	for _, s := range c.Master.servers {
		for _, id := range s.regionIDs() {
			hr := s.regions[id]
			heats = append(heats, RegionHeat{Info: hr.info, Ops: hr.total})
		}
	}
	sort.Slice(heats, func(i, j int) bool {
		if heats[i].Ops != heats[j].Ops {
			return heats[i].Ops > heats[j].Ops
		}
		return heats[i].Info.ID < heats[j].Info.ID
	})
	if n > 0 && len(heats) > n {
		heats = heats[:n]
	}
	return heats
}
