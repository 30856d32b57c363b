package regionserver

import (
	"fmt"
	"sort"
	"strings"
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
// per-table region maps, and the META consistency check.
func (c *Cluster) StatusPage() string {
	var b strings.Builder
	ma := c.Master
	fmt.Fprintf(&b, "Region servers (%d):\n", len(ma.servers))
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
		fmt.Fprintf(&b, "  %-4s node=%-2d %-4s regions=%-3d ops=%-8d bytes=%d\n",
			s.name, s.node, state, s.RegionCount(), ops, bytes)
	}
	for _, table := range ma.Tables() {
		regions := ma.meta[table]
		fmt.Fprintf(&b, "\nTable %s (%d regions):\n", table, len(regions))
		for _, r := range regions {
			srv := ma.byName[r.Srv]
			detail := "unassigned"
			if srv != nil {
				if hr := srv.regions[r.ID]; hr != nil {
					detail = fmt.Sprintf("ops=%d bytes=%d files=%d",
						hr.total, hr.tbl.SizeBytes(), hr.tbl.StoreFileCount())
				} else if !srv.alive {
					detail = "server dead, awaiting reassignment"
				}
			}
			fmt.Fprintf(&b, "  %-6s %-28s epoch=%-4d %-4s %s\n",
				r.ID, r.RangeString(), r.Epoch, r.Srv, detail)
		}
	}
	if err := ma.CheckMeta(); err != nil {
		fmt.Fprintf(&b, "\nMETA check: BROKEN: %v\n", err)
	} else if len(ma.meta) > 0 {
		fmt.Fprintf(&b, "\nMETA check: ok (every table tiles the key space)\n")
	}
	if hot := c.HottestRegions(3); len(hot) > 0 {
		b.WriteString("\nHottest regions (by ops):\n")
		for _, h := range hot {
			fmt.Fprintf(&b, "  %-6s %-28s %-4s ops=%d\n", h.Info.ID, h.Info.RangeString(), h.Info.Srv, h.Ops)
		}
	}
	splits, merges, reassigns := int64(0), int64(0), int64(0)
	if c.Obs != nil {
		splits = c.Obs.CounterValue(MetricSplits)
		merges = c.Obs.CounterValue(MetricMerges)
		reassigns = c.Obs.CounterValue(MetricReassigns)
	}
	fmt.Fprintf(&b, "\nLifecycle: %d splits, %d merges, %d reassignments, %d META events\n",
		splits, merges, reassigns, ma.MetaLogLen())
	if start, end, n := ma.LastRecovery(); n > 0 {
		fmt.Fprintf(&b, "Last recovery: %d regions in %v (at %v)\n",
			n, (end - start).Round(time.Millisecond), start.Round(time.Millisecond))
	}
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
