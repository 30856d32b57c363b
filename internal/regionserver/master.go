package regionserver

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/history"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// META log event types. The log is the serving tier's determinism
// fingerprint: two runs from the same seed produce byte-identical logs.
const (
	EvRegionCreate   = "region.create"
	EvRegionAssign   = "region.assign"
	EvRegionSplit    = "region.split"
	EvRegionMerge    = "region.merge"
	EvRegionReassign = "region.reassign"
	EvServerDead     = "server.dead"
	EvServerJoin     = "server.join"
)

// mergeMaxOps is the per-window op count under which a region counts as
// cold enough to merge.
const mergeMaxOps = 16

// Master owns META — the authoritative (table, rowkey) → region → server
// map — and the region lifecycle: create, assign, split hot regions,
// merge cold ones, and reassign everything a dead server was hosting.
type Master struct {
	eng *sim.Engine
	fs  vfs.FileSystem
	m   *metrics

	servers []*Server // stable name order
	byName  map[string]*Server

	meta       map[string][]RegionInfo // per table, sorted by Start
	metaLog    *history.Log
	nextRegion int
	nextEpoch  int

	// retired holds the directories of regions split or merged away (or
	// of daughters a failed split or merge left behind) until the janitor
	// removes them; read is its scratch set of the directories open
	// regions read.
	retired []string
	read    map[string]bool

	lastBeat map[string]sim.Time
	dead     map[string]bool
	ticker   *sim.Ticker

	recoverStart, recoverEnd sim.Time
	recovered                int
}

// newMaster wires the master over an existing server set.
func newMaster(eng *sim.Engine, fs vfs.FileSystem, servers []*Server, opts Options, m *metrics) *Master {
	ma := &Master{
		eng:      eng,
		fs:       fs,
		m:        m,
		servers:  servers,
		byName:   map[string]*Server{},
		meta:     map[string][]RegionInfo{},
		metaLog:  history.NewLog(m.reg.Counter("serving.meta_events")),
		read:     map[string]bool{},
		lastBeat: map[string]sim.Time{},
		dead:     map[string]bool{},
	}
	for _, s := range servers {
		ma.byName[s.name] = s
		ma.lastBeat[s.name] = eng.Now()
		s.askSplit = ma.requestSplit
		s.splitMaxBytes = opts.SplitMaxBytes
		s.splitMaxOps = opts.SplitMaxOps
	}
	ma.ticker = eng.Every(heartbeatInterval, ma.tick)
	return ma
}

// Stop cancels the heartbeat ticker (tests and benches that reuse an
// engine after the cluster is done).
func (ma *Master) Stop() { ma.ticker.Stop() }

func (ma *Master) logEvent(typ string, attrs map[string]string) {
	ma.metaLog.Append(ma.eng.Now(), typ, attrs)
}

// MetaLogBytes marshals the META log — the byte-comparable determinism
// artifact.
func (ma *Master) MetaLogBytes() ([]byte, error) { return ma.metaLog.Bytes() }

// Tables returns the sorted table names.
func (ma *Master) Tables() []string {
	names := make([]string, 0, len(ma.meta))
	for name := range ma.meta {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Regions returns a copy of the table's sorted region list (what a
// client caches on a META refresh).
func (ma *Master) Regions(table string) ([]RegionInfo, error) {
	regions, ok := ma.meta[table]
	if !ok {
		return nil, ErrNoTable
	}
	return append([]RegionInfo(nil), regions...), nil
}

// Server returns the named region server (nil if unknown).
func (ma *Master) Server(name string) *Server { return ma.byName[name] }

// Servers returns the region servers in stable name order.
func (ma *Master) Servers() []*Server { return append([]*Server(nil), ma.servers...) }

// aliveServers returns the live servers in stable name order.
func (ma *Master) aliveServers() []*Server {
	var out []*Server
	for _, s := range ma.servers {
		if s.alive {
			out = append(out, s)
		}
	}
	return out
}

// leastLoaded picks the live server hosting the fewest regions (name
// order breaks ties) — the assignment heuristic for daughters and
// recovered regions. exclude may be nil.
func (ma *Master) leastLoaded(exclude *Server) *Server {
	var best *Server
	for _, s := range ma.aliveServers() {
		if s == exclude {
			continue
		}
		if best == nil || s.RegionCount() < best.RegionCount() {
			best = s
		}
	}
	if best == nil && exclude != nil && exclude.alive {
		return exclude
	}
	return best
}

// newRegionInfo mints a region with a fresh ID and epoch.
func (ma *Master) newRegionInfo(table, start, end string) RegionInfo {
	id := fmt.Sprintf("r%04d", ma.nextRegion)
	ma.nextRegion++
	ma.nextEpoch++
	return RegionInfo{
		ID:    id,
		Table: table,
		Start: start,
		End:   end,
		Epoch: ma.nextEpoch,
		Path:  regionPath(table, id),
	}
}

// CreateTable creates a table pre-split at the given keys (sorted,
// deduplicated; empty means one region spanning everything) and assigns
// the regions round-robin over the live servers.
func (ma *Master) CreateTable(table string, splitKeys []string) error {
	if _, ok := ma.meta[table]; ok {
		return fmt.Errorf("regionserver: table %q exists", table)
	}
	alive := ma.aliveServers()
	if len(alive) == 0 {
		return ErrNoLiveServer
	}
	keys := append([]string(nil), splitKeys...)
	sort.Strings(keys)
	keys = compactKeys(keys)
	bounds := append([]string{""}, keys...)
	var regions []RegionInfo
	for i, start := range bounds {
		end := ""
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		info := ma.newRegionInfo(table, start, end)
		srv := alive[i%len(alive)]
		info.Srv = srv.name
		if _, err := srv.openRegion(info); err != nil {
			return err
		}
		regions = append(regions, info)
		ma.logEvent(EvRegionCreate, map[string]string{
			"region": info.ID, "table": table, "range": info.RangeString(),
		})
		ma.logEvent(EvRegionAssign, map[string]string{
			"region": info.ID, "server": srv.name, "epoch": fmt.Sprint(info.Epoch),
		})
	}
	ma.meta[table] = regions
	return nil
}

func compactKeys(sorted []string) []string {
	var out []string
	for _, k := range sorted {
		if k == "" || (len(out) > 0 && out[len(out)-1] == k) {
			continue
		}
		out = append(out, k)
	}
	return out
}

// BulkLoadTable loads sorted rows straight into the regions' store
// files, bypassing WAL and MemStore — the setup path experiments use to
// install the initial dataset without burning virtual time.
func (ma *Master) BulkLoadTable(table string, kvs []kvstore.KV) error {
	regions, ok := ma.meta[table]
	if !ok {
		return ErrNoTable
	}
	sorted := append([]kvstore.KV(nil), kvs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for _, info := range regions {
		lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].Key >= info.Start })
		hi := len(sorted)
		if info.End != "" {
			hi = sort.Search(len(sorted), func(i int) bool { return sorted[i].Key >= info.End })
		}
		if lo >= hi {
			continue
		}
		hr := ma.open(info)
		if hr == nil {
			return fmt.Errorf("regionserver: %s not open on %s", info.ID, info.Srv)
		}
		if err := hr.tbl.BulkLoad(sorted[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// updateMeta replaces the META rows for the given region IDs with the
// replacement set (which may be empty — a merge removes rows).
func (ma *Master) updateMeta(table string, removeIDs []string, add []RegionInfo) {
	regions := ma.meta[table]
	var next []RegionInfo
	for _, r := range regions {
		removed := false
		for _, id := range removeIDs {
			if r.ID == id {
				removed = true
				break
			}
		}
		if !removed {
			next = append(next, r)
		}
	}
	next = append(next, add...)
	sortRegions(next)
	ma.meta[table] = next
}

// findRegion locates a region row by ID across all tables.
func (ma *Master) findRegion(regionID string) (RegionInfo, bool) {
	for _, table := range ma.Tables() {
		for _, r := range ma.meta[table] {
			if r.ID == regionID {
				return r, true
			}
		}
	}
	return RegionInfo{}, false
}

// requestSplit is the hot-region hook servers fire (deferred through the
// engine) when a region crosses the size/ops thresholds.
func (ma *Master) requestSplit(regionID string) {
	info, ok := ma.findRegion(regionID)
	hr := ma.open(info)
	if !ok || hr == nil {
		return // split or merged away, or crash recovery owns it now
	}
	if err := ma.splitRegion(info, ma.byName[info.Srv], hr); err != nil {
		// Unsplittable (single hot key, midkey at a bound): re-arm the
		// trigger so growth can ask again later.
		hr.ops = 0
		hr.splitAsked = false
	}
}

// splitRegion divides a region at its data midpoint without moving a
// row: flush the parent, open two daughters over references to its store
// files (kvstore.Reference), keep the low daughter local and hand the
// high one to the least-loaded server, then swap the META rows. Until
// the daughters are open nothing but their two directories has changed,
// and a failure removes those; after it nothing can fail. Clients
// holding the parent's location get ErrNotServing and refresh.
func (ma *Master) splitRegion(info RegionInfo, srv *Server, hr *hostedRegion) error {
	if err := hr.tbl.Flush(); err != nil {
		return err
	}
	mid, err := hr.tbl.MidKey()
	if err != nil {
		return err
	}
	if mid == "" || mid <= info.Start || (info.End != "" && mid >= info.End) {
		return fmt.Errorf("regionserver: %s has no usable midkey", info.ID)
	}
	target := ma.leastLoaded(nil)
	if target == nil {
		return ErrNoLiveServer
	}
	parentBytes := hr.tbl.SizeBytes()
	low := ma.newRegionInfo(info.Table, info.Start, mid)
	high := ma.newRegionInfo(info.Table, mid, info.End)
	low.Srv = srv.name
	high.Srv = target.name
	lowTbl, err := kvstore.Reference(low.Path, "", mid, hr.tbl)
	var highTbl *kvstore.Table
	if err == nil {
		highTbl, err = kvstore.Reference(high.Path, mid, "", hr.tbl)
	}
	if err != nil {
		ma.janitor(low.Path, high.Path)
		return err
	}
	srv.closeRegion(info.ID)
	srv.host(low, lowTbl)
	target.host(high, highTbl)
	ma.updateMeta(info.Table, []string{info.ID}, []RegionInfo{low, high})
	ma.janitor(info.Path)

	// Virtual-time cost: the parent server does the full split, the
	// daughter target absorbs its half.
	now := ma.eng.Now()
	work := cost.SplitBase + sim.Time(parentBytes/1024)*cost.SplitPerKB
	done := srv.occupy(now, work)
	if target != srv {
		target.occupy(now, work/2)
	}
	ma.m.splits.Inc()
	ma.m.reg.NewTrace(now).End(SpanSplit, now, done, map[string]string{
		"region": info.ID, "mid": mid, "low": low.ID, "high": high.ID,
	})
	ma.logEvent(EvRegionSplit, map[string]string{
		"region": info.ID, "mid": mid, "low": low.ID, "high": high.ID,
	})
	ma.logEvent(EvRegionAssign, map[string]string{
		"region": low.ID, "server": low.Srv, "epoch": fmt.Sprint(low.Epoch),
	})
	ma.logEvent(EvRegionAssign, map[string]string{
		"region": high.ID, "server": high.Srv, "epoch": fmt.Sprint(high.Epoch),
	})
	return nil
}

// janitor adds retire to the retired directories, then removes every
// retired directory no open region reads, as HBase's CatalogJanitor does:
// readers are recounted on each pass, never kept. A region reads the
// directories its markers name until its first compaction rewrites them.
// While a META row is not open at its epoch nothing is removed — its
// server died and it has not been reopened, so what it reads is unknown.
// A removal that fails (absent counts as removed) stays retired for the
// next pass: every split, merge and heartbeat ends in one.
func (ma *Master) janitor(retire ...string) {
	ma.retired = append(ma.retired, retire...)
	if len(ma.retired) == 0 {
		return
	}
	clear(ma.read)
	for _, regions := range ma.meta {
		for _, info := range regions {
			hr := ma.open(info)
			if hr == nil {
				return
			}
			if hr.tbl.Compactions == 0 {
				for _, dir := range hr.refs {
					ma.read[dir] = true
				}
			}
		}
	}
	kept := ma.retired[:0]
	for _, dir := range ma.retired {
		if ma.read[dir] {
			kept = append(kept, dir)
		} else if err := ma.fs.Remove(dir, true); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			kept = append(kept, dir)
		}
	}
	ma.retired = kept
}

// open returns the region as its META row names it — hosted by its
// server at its epoch — or nil when it is not open.
func (ma *Master) open(info RegionInfo) *hostedRegion {
	if srv := ma.byName[info.Srv]; srv != nil {
		if hr := srv.regions[info.ID]; hr != nil && hr.info.Epoch == info.Epoch {
			return hr
		}
	}
	return nil
}

// MergeAdjacent merges the first adjacent cold pair of the table —
// both sides under mergeMaxOps ops in the current window and combined
// size under maxBytes — into one region on the low side's server.
// Returns whether a merge happened.
func (ma *Master) MergeAdjacent(table string, maxBytes int64) (bool, error) {
	regions, ok := ma.meta[table]
	if !ok {
		return false, ErrNoTable
	}
	for i := 0; i+1 < len(regions); i++ {
		a, b := regions[i], regions[i+1]
		ha, hb := ma.open(a), ma.open(b)
		if ha == nil || hb == nil || ha.ops >= mergeMaxOps || hb.ops >= mergeMaxOps {
			continue
		}
		if ha.tbl.SizeBytes()+hb.tbl.SizeBytes() > maxBytes {
			continue
		}
		return true, ma.mergeRegions(a, b, ha, hb)
	}
	return false, nil
}

// mergeRegions folds two adjacent regions into one on the low side's
// server the way a split divides one: flush both, open the merged region
// over references to their store files, swap the META rows.
func (ma *Master) mergeRegions(a, b RegionInfo, ha, hb *hostedRegion) error {
	sa, sb := ma.byName[a.Srv], ma.byName[b.Srv]
	if err := ha.tbl.Flush(); err != nil {
		return err
	}
	if err := hb.tbl.Flush(); err != nil {
		return err
	}
	merged := ma.newRegionInfo(a.Table, a.Start, b.End)
	merged.Srv = sa.name
	tbl, err := kvstore.Reference(merged.Path, "", "", ha.tbl, hb.tbl)
	if err != nil {
		ma.janitor(merged.Path)
		return err
	}
	sa.closeRegion(a.ID)
	sb.closeRegion(b.ID)
	sa.host(merged, tbl)
	ma.updateMeta(a.Table, []string{a.ID, b.ID}, []RegionInfo{merged})
	ma.janitor(a.Path, b.Path)
	ma.m.merges.Inc()
	ma.logEvent(EvRegionMerge, map[string]string{
		"low": a.ID, "high": b.ID, "merged": merged.ID,
	})
	ma.logEvent(EvRegionAssign, map[string]string{
		"region": merged.ID, "server": merged.Srv, "epoch": fmt.Sprint(merged.Epoch),
	})
	return nil
}

// tick is the master's heartbeat pass: live servers refresh their beat,
// silent servers past the expiry are declared dead, restarted servers
// rejoin, regions left without a serving server are reassigned, and the
// janitor runs.
func (ma *Master) tick() {
	now := ma.eng.Now()
	for _, s := range ma.servers {
		switch {
		case s.alive && ma.dead[s.name]:
			ma.dead[s.name] = false
			ma.lastBeat[s.name] = now
			ma.logEvent(EvServerJoin, map[string]string{"server": s.name})
		case s.alive:
			ma.lastBeat[s.name] = now
		case !ma.dead[s.name] && now-ma.lastBeat[s.name] >= heartbeatExpiry:
			ma.declareDead(s)
		}
	}
	ma.reassign()
	ma.janitor()
}

// declareDead opens a recovery window and reassigns the dead server's
// regions at once.
func (ma *Master) declareDead(s *Server) {
	now := ma.eng.Now()
	ma.dead[s.name] = true
	ma.recoverStart = now
	ma.recoverEnd = now
	ma.logEvent(EvServerDead, map[string]string{"server": s.name})
	ma.reassign()
}

// reassign moves every META row whose server is declared dead, or is up
// but does not host the row at its epoch (it restarted, or a reopen
// failed), to the least-loaded live server. The new owner reopens the
// region's kvstore — a real WAL replay off the shared filesystem — and is
// charged replay-proportional virtual time. A row whose server is silent
// but not yet declared dead waits for the expiry; with no live server a
// row stays dark, and the next heartbeat tries again.
func (ma *Master) reassign() {
	now := ma.eng.Now()
	for _, table := range ma.Tables() {
		// updateMeta replaces the slice and never edits it.
		for _, info := range ma.meta[table] {
			if srv := ma.byName[info.Srv]; (!srv.alive && !ma.dead[srv.name]) || ma.open(info) != nil {
				continue
			}
			target := ma.leastLoaded(nil)
			if target == nil {
				return
			}
			ma.nextEpoch++
			next := info
			next.Srv = target.name
			next.Epoch = ma.nextEpoch
			replayed, err := target.openRegion(next)
			if err != nil {
				continue
			}
			done := target.occupy(now, cost.ReplayBase+sim.Time(replayed)*cost.ReplayPerOp)
			ma.recoverEnd = max(ma.recoverEnd, done)
			ma.updateMeta(table, []string{info.ID}, []RegionInfo{next})
			ma.recovered++
			ma.m.reassigns.Inc()
			ma.m.reg.NewTrace(now).End(SpanRecover, now, done, map[string]string{
				"region": info.ID, "from": info.Srv, "to": target.name,
				"replayed": fmt.Sprint(replayed),
			})
			ma.logEvent(EvRegionReassign, map[string]string{
				"region": info.ID, "from": info.Srv, "to": target.name,
				"epoch": fmt.Sprint(next.Epoch), "replayed": fmt.Sprint(replayed),
			})
		}
	}
}

// LastRecovery reports the most recent crash-recovery window (declare
// dead → last region replayed) and the total regions recovered so far.
func (ma *Master) LastRecovery() (start, end sim.Time, regions int) {
	return ma.recoverStart, ma.recoverEnd, ma.recovered
}

// ResetLoadWindows zeroes every hosted region's op window (the merge
// coldness signal); callers running phased workloads use it between
// phases.
func (ma *Master) ResetLoadWindows() {
	for _, s := range ma.servers {
		for _, id := range s.regionIDs() {
			s.regions[id].ops = 0
		}
	}
}

// CheckMeta verifies every table's regions tile the key space with no
// gaps or overlaps — the serving tier's fsck.
func (ma *Master) CheckMeta() error {
	for _, table := range ma.Tables() {
		if err := checkContiguous(ma.meta[table]); err != nil {
			return fmt.Errorf("table %s: %w", table, err)
		}
	}
	return nil
}
