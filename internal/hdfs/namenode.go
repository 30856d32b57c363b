package hdfs

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// ErrSafeMode is returned for mutating operations while the NameNode is in
// safe mode (during startup, until enough block reports arrive).
var ErrSafeMode = errors.New("hdfs: name node is in safe mode")

// Config holds the cluster-wide HDFS settings. Zero values take defaults
// scaled for teaching-size data (Hadoop's 64 MB blocks would leave toy
// files in a single block, hiding everything interesting).
type Config struct {
	BlockSize           int64
	Replication         int
	HeartbeatInterval   time.Duration
	HeartbeatExpiry     time.Duration
	BlockReportInterval time.Duration
	ReplMonitorInterval time.Duration
	// RandomPlacement replaces the default writer-local/cross-rack policy
	// with uniform random target selection — the ablation showing what
	// the placement policy buys (map locality, rack fault tolerance).
	RandomPlacement bool
}

const (
	// replRetryBackoff is how long the replication monitor waits before
	// re-attempting a block whose last re-replication attempt failed (no
	// live source, no eligible target, partition, checksum error). Without
	// it an unsatisfiable block — say every live node already holds a
	// replica — re-runs target selection on every monitor tick.
	replRetryBackoff = 30 * time.Second
	// safeModeThreshold is the fraction of known blocks that must be
	// reported before the NameNode leaves safe mode.
	safeModeThreshold = 0.999
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 2 << 20
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 3 * time.Second
	}
	if c.HeartbeatExpiry <= 0 {
		c.HeartbeatExpiry = 30 * time.Second
	}
	if c.BlockReportInterval <= 0 {
		c.BlockReportInterval = 10 * time.Minute
	}
	if c.ReplMonitorInterval <= 0 {
		c.ReplMonitorInterval = 3 * time.Second
	}
	return c
}

type blockMeta struct {
	id       BlockID
	len      int64
	expected int
	replicas map[cluster.NodeID]bool
	corrupt  map[cluster.NodeID]bool

	// pendingRepl is set while a re-replication copy is in flight;
	// replRetryAt is when the monitor may retry after a failed attempt.
	pendingRepl bool
	replRetryAt sim.Time
}

// NameNode owns the namespace tree and the block map, chooses replica
// placements, monitors DataNode liveness, and drives re-replication. It
// corresponds to the single "NameNode" box of the paper's Figure 2.
type NameNode struct {
	eng  *sim.Engine
	topo *cluster.Topology
	cost cluster.CostModel
	cfg  Config
	rng  *sim.Rand

	// net is the connectivity overlay re-replication copies must respect.
	net *cluster.Network

	ns        *namespace
	blocks    map[BlockID]*blockMeta
	nextBlock BlockID

	// datanodes is MiniDFS's slice, indexed by node ID: direct handles
	// (the simulation's RPC) that also carry the NameNode's view of each
	// node (registered, last heartbeat, declared live, draining).
	datanodes []*DataNode

	safeMode bool

	// metaFS, when set, persists the namespace (fsimage + edit log);
	// see journal.go. Edits go to generation metaGen's log.
	metaFS  vfs.FileSystem
	metaGen int

	// obs is the cluster-wide observability registry; m holds the
	// NameNode's interned metric handles (see metrics.go).
	obs *obs.Registry
	m   nnMetrics

	// audit is the NameNode audit log (internal/history): every namespace
	// operation and block decision, with principal, path and result.
	// Client-facing entries are appended by Client.auditEv; control-plane
	// decisions (re-replication, corruption, liveness) are appended here
	// as principal "hdfs".
	audit *history.Log

	// safeModeEnteredAt anchors the hdfs.safemode span emitted on exit.
	safeModeEnteredAt sim.Time

	// monitors are the liveness and replication tickers (see start).
	monitors [2]*sim.Ticker
}

// SafeModeExitedAt reports the sim instant of the most recent safe-mode
// exit (zero if the NameNode never left safe mode).
func (nn *NameNode) SafeModeExitedAt() sim.Time { return sim.Time(nn.m.safeModeExitedAt.Value()) }

// newNameNode constructs an unstarted NameNode.
func newNameNode(eng *sim.Engine, topo *cluster.Topology, cost cluster.CostModel, cfg Config, rng *sim.Rand, reg *obs.Registry) *NameNode {
	nn := &NameNode{
		eng:      eng,
		topo:     topo,
		cost:     cost,
		cfg:      cfg,
		rng:      rng,
		ns:       newNamespace(),
		blocks:   map[BlockID]*blockMeta{},
		safeMode: true,
		obs:      reg,
		m:        newNNMetrics(reg),
		audit:    history.NewLog(reg.Counter(history.MetricAuditEvents)),
	}
	nn.m.safeMode.Set(1)
	return nn
}

// start arms the liveness and replication monitors and the safe-mode exit
// check for an empty namespace.
func (nn *NameNode) start() {
	nn.monitors = [2]*sim.Ticker{
		nn.eng.Every(nn.cfg.HeartbeatInterval, nn.checkLiveness),
		nn.eng.Every(nn.cfg.ReplMonitorInterval, nn.replicationMonitor),
	}
	nn.maybeLeaveSafeMode()
}

// Shutdown stops the NameNode daemon: DataNode liveness is no longer
// checked and nothing is re-replicated again. Final — Restart models a
// restart that keeps the process's place on the clock, not a stop.
func (nn *NameNode) Shutdown() {
	for _, t := range nn.monitors {
		t.Stop()
	}
}

// InSafeMode reports whether mutations are currently refused.
func (nn *NameNode) InSafeMode() bool { return nn.safeMode }

// Config returns the effective configuration.
func (nn *NameNode) Config() Config { return nn.cfg }

// Restart models a NameNode restart: registrations, replica maps and
// replication state are forgotten (they live only in memory); the
// namespace survives (fsimage), and so does a node's draining mark. The
// cluster re-enters safe mode until block reports rebuild the map.
func (nn *NameNode) Restart() {
	nn.safeMode = true
	nn.safeModeEnteredAt = nn.eng.Now()
	nn.m.safeMode.Set(1)
	for _, dn := range nn.datanodes {
		dn.registered, dn.declaredLive = false, false
	}
	for _, bm := range nn.blocks {
		bm.replicas = map[cluster.NodeID]bool{}
		bm.corrupt = map[cluster.NodeID]bool{}
		bm.pendingRepl, bm.replRetryAt = false, 0
	}
}

// datanode returns the DataNode on node id, or nil for an id off the
// cluster (GatewayNode, a mistyped admin argument).
func (nn *NameNode) datanode(id cluster.NodeID) *DataNode {
	if id < 0 || int(id) >= len(nn.datanodes) {
		return nil
	}
	return nn.datanodes[id]
}

// --- DataNode protocol ---

func (nn *NameNode) register(dn *DataNode) {
	dn.registered, dn.declaredLive = true, true
	dn.lastHeartbeat = nn.eng.Now()
	nn.m.registrations.Inc()
}

func (nn *NameNode) heartbeat(dn *DataNode) {
	if !dn.registered {
		// Unknown node (e.g. after a NameNode restart): ask it to
		// re-register and re-report.
		if dn.alive {
			nn.register(dn)
			dn.sendBlockReport()
		}
		return
	}
	nn.m.heartbeats.Inc()
	nn.m.heartbeatGap.Observe(time.Duration(nn.eng.Now() - dn.lastHeartbeat))
	dn.lastHeartbeat = nn.eng.Now()
	if !dn.declaredLive {
		// A node returning from the dead (e.g. after a heartbeat-drop
		// window) re-reports its blocks immediately, as real HDFS asks a
		// rejoining DataNode to do — otherwise its replicas would stay
		// invisible until the next scheduled block report.
		dn.declaredLive = true
		if dn.alive {
			dn.sendBlockReport()
		}
	}
}

func (nn *NameNode) blockReport(dn *DataNode, held []BlockID) {
	if !dn.registered {
		return
	}
	nn.m.blockReports.Inc()
	dn.lastHeartbeat = nn.eng.Now()
	heldSet := make(map[BlockID]bool, len(held))
	for _, b := range held {
		heldSet[b] = true
	}
	for bid, bm := range nn.blocks {
		if heldSet[bid] {
			bm.replicas[dn.id] = true
		} else {
			delete(bm.replicas, dn.id)
		}
	}
	// Blocks the DataNode holds that the namespace no longer references
	// are garbage from deleted files; tell it to drop them.
	for _, bid := range held {
		if _, known := nn.blocks[bid]; !known {
			dn.deleteBlock(bid)
		}
	}
	nn.maybeLeaveSafeMode()
}

// auditEv appends a control-plane audit event as principal "hdfs" —
// a decision the NameNode took on its own, not on behalf of a client.
func (nn *NameNode) auditEv(typ string, attrs ...obs.Attr) {
	all := make(obs.Attrs, 0, len(attrs)+1)
	all = append(all, attrs...)
	all = append(all, obs.Attr{Key: "user", Value: history.PrincipalNameNode})
	nn.audit.Append(time.Duration(nn.eng.Now()), typ, all)
}

// hostname resolves a node ID for audit attrs (IDs are stable too, but
// hostnames are what students grep the log for).
func (nn *NameNode) hostname(id cluster.NodeID) string {
	if n := nn.topo.Node(id); n != nil {
		return n.Hostname
	}
	return fmt.Sprint(id)
}

// checkLiveness declares dead every live node whose last heartbeat is
// older than the expiry, in node-ID order: two nodes expiring on the same
// tick produce the same audit-log order on every replay.
func (nn *NameNode) checkLiveness() {
	now := nn.eng.Now()
	for _, dn := range nn.datanodes {
		if !dn.declaredLive || now-dn.lastHeartbeat <= nn.cfg.HeartbeatExpiry {
			continue
		}
		dn.declaredLive = false
		nn.m.datanodesDeclaredDead.Inc()
		nn.auditEv(history.EvAuditDatanodeDead, obs.Attr{Key: "node", Value: dn.node.Hostname})
		// Replicas on a dead node no longer count; the replication
		// monitor will notice the deficit on its next pass.
		for _, bm := range nn.blocks {
			delete(bm.replicas, dn.id)
		}
	}
}

func (nn *NameNode) maybeLeaveSafeMode() {
	if !nn.safeMode {
		return
	}
	total := len(nn.blocks)
	if total == 0 {
		if len(nn.datanodes) == 0 || slices.ContainsFunc(nn.datanodes, func(dn *DataNode) bool { return dn.registered }) {
			nn.exitSafeMode()
		}
		return
	}
	reported := 0
	for _, bm := range nn.blocks {
		if nn.liveReplicas(bm) > 0 {
			reported++
		}
	}
	if float64(reported) >= safeModeThreshold*float64(total) {
		nn.exitSafeMode()
	}
}

func (nn *NameNode) exitSafeMode() {
	nn.safeMode = false
	now := nn.eng.Now()
	nn.m.safeMode.Set(0)
	nn.m.safeModeExits.Inc()
	nn.m.safeModeExitedAt.Set(int64(now))
	nn.obs.NewTrace(time.Duration(now)).End("hdfs.safemode", time.Duration(nn.safeModeEnteredAt), time.Duration(now), nil)
	nn.auditEv(history.EvAuditSafemodeExit, obs.Attr{Key: "blocks", Value: strconv.Itoa(len(nn.blocks))})
}

// liveReplicas counts confirmed replicas on live, non-draining nodes,
// excluding corrupt copies. Replicas on decommissioning nodes do not
// count toward the target, which is what drives the drain.
func (nn *NameNode) liveReplicas(bm *blockMeta) int {
	n := 0
	for id := range bm.replicas {
		if dn := nn.datanodes[id]; dn.declaredLive && !dn.draining && !bm.corrupt[id] {
			n++
		}
	}
	return n
}

// usableReplicas returns the holders of bm a reader can use — live and
// not corrupt — sorted by node ID. Unlike liveReplicas it keeps the
// replicas on draining nodes: reads may still use a node while it drains.
func (nn *NameNode) usableReplicas(bm *blockMeta) []cluster.NodeID {
	var out []cluster.NodeID
	for id := range bm.replicas {
		if nn.datanodes[id].declaredLive && !bm.corrupt[id] {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// LiveDataNodes returns the IDs of registered, live DataNodes, sorted.
func (nn *NameNode) LiveDataNodes() []cluster.NodeID {
	var out []cluster.NodeID
	for _, dn := range nn.datanodes {
		if dn.declaredLive {
			out = append(out, dn.id)
		}
	}
	return out
}

// --- placement ---

// chooseTargets implements the Hadoop default placement policy: first
// replica on the writer's node when it is a live DataNode, second replica
// on a node in a different rack, third on a different node in the second
// replica's rack, and any further replicas on random nodes.
func (nn *NameNode) chooseTargets(writer cluster.NodeID, n int, exclude map[cluster.NodeID]bool) []cluster.NodeID {
	if exclude == nil {
		exclude = map[cluster.NodeID]bool{}
	}
	var targets []cluster.NodeID
	taken := func(id cluster.NodeID) bool {
		if exclude[id] {
			return true
		}
		for _, t := range targets {
			if t == id {
				return true
			}
		}
		return false
	}
	pickWhere := func(pred func(cluster.NodeID) bool) (cluster.NodeID, bool) {
		var cands []cluster.NodeID
		for _, dn := range nn.datanodes {
			if dn.declaredLive && !dn.draining && !taken(dn.id) && pred(dn.id) {
				cands = append(cands, dn.id)
			}
		}
		if len(cands) == 0 {
			return 0, false
		}
		return cands[nn.rng.Choice(len(cands))], true
	}
	any := func(cluster.NodeID) bool { return true }

	if nn.cfg.RandomPlacement {
		for len(targets) < n {
			id, ok := pickWhere(any)
			if !ok {
				break
			}
			targets = append(targets, id)
		}
		return targets
	}

	// Replica 1: writer-local when possible.
	if dn := nn.datanode(writer); dn != nil && dn.declaredLive && !dn.draining && !taken(writer) {
		targets = append(targets, writer)
	} else if id, ok := pickWhere(any); ok {
		targets = append(targets, id)
	}
	// Replica 2: different rack from replica 1.
	if len(targets) >= 1 && len(targets) < n {
		r0 := nn.topo.RackOf(targets[0])
		if id, ok := pickWhere(func(id cluster.NodeID) bool { return nn.topo.RackOf(id) != r0 }); ok {
			targets = append(targets, id)
		} else if id, ok := pickWhere(any); ok { // single-rack cluster
			targets = append(targets, id)
		}
	}
	// Replica 3: same rack as replica 2.
	if len(targets) >= 2 && len(targets) < n {
		r1 := nn.topo.RackOf(targets[1])
		if id, ok := pickWhere(func(id cluster.NodeID) bool { return nn.topo.RackOf(id) == r1 }); ok {
			targets = append(targets, id)
		} else if id, ok := pickWhere(any); ok {
			targets = append(targets, id)
		}
	}
	// Remaining replicas: anywhere.
	for len(targets) < n {
		id, ok := pickWhere(any)
		if !ok {
			break
		}
		targets = append(targets, id)
	}
	return targets
}

// --- namespace operations (client-facing) ---

// MkdirAll creates a directory path.
func (nn *NameNode) MkdirAll(path string) error {
	if nn.safeMode {
		return &vfs.PathError{Op: "mkdir", Path: path, Err: ErrSafeMode}
	}
	if err := nn.ns.mkdirAll(path); err != nil {
		return err
	}
	return nn.journal(editRecord{Op: "mkdir", Path: vfs.Clean(path)})
}

// createFileEntry allocates the inode for a new file.
func (nn *NameNode) createFileEntry(path string, repl int) (*inode, error) {
	if nn.safeMode {
		return nil, &vfs.PathError{Op: "create", Path: path, Err: ErrSafeMode}
	}
	if repl <= 0 {
		repl = nn.cfg.Replication
	}
	return nn.ns.createFile(path, repl)
}

// appendFileEntry returns the inode an append extends, allocating it when
// the file does not exist yet.
func (nn *NameNode) appendFileEntry(path string) (*inode, error) {
	if nn.safeMode {
		return nil, &vfs.PathError{Op: "append", Path: path, Err: ErrSafeMode}
	}
	f := nn.ns.lookup(path)
	if f == nil {
		return nn.ns.createFile(path, nn.cfg.Replication)
	}
	if f.dir {
		return nil, &vfs.PathError{Op: "append", Path: path, Err: vfs.ErrIsDir}
	}
	return f, nil
}

// allocateBlock assigns a new block ID and its replica targets. path is
// the file being written, carried along for the audit log.
func (nn *NameNode) allocateBlock(f *inode, path string, writer cluster.NodeID) (BlockID, []cluster.NodeID, error) {
	targets := nn.chooseTargets(writer, f.repl, nil)
	if len(targets) == 0 {
		return 0, nil, fmt.Errorf("hdfs: no live datanodes to place block (need %d)", f.repl)
	}
	nn.nextBlock++
	id := nn.nextBlock
	nn.m.blocksAllocated.Inc()
	nn.blocks[id] = &blockMeta{
		id:       id,
		expected: f.repl,
		replicas: map[cluster.NodeID]bool{},
		corrupt:  map[cluster.NodeID]bool{},
	}
	hosts := make([]string, len(targets))
	for i, t := range targets {
		hosts[i] = nn.hostname(t)
	}
	nn.auditEv(history.EvAuditBlockAllocate,
		obs.Attr{Key: "block", Value: id.String()},
		obs.Attr{Key: "src", Value: path},
		obs.Attr{Key: "targets", Value: strings.Join(hosts, ",")})
	return id, targets, nil
}

// commitBlock records the successfully written replicas of a block and
// appends it to the file.
func (nn *NameNode) commitBlock(f *inode, id BlockID, length int64, written []cluster.NodeID) {
	bm := nn.blocks[id]
	bm.len = length
	for _, w := range written {
		bm.replicas[w] = true
	}
	f.blocks = append(f.blocks, id)
	f.size += length
}

// abandonBlock drops a block that failed to write.
func (nn *NameNode) abandonBlock(id BlockID) { delete(nn.blocks, id) }

// Delete removes a path, invalidating its blocks on all DataNodes.
func (nn *NameNode) Delete(path string, recursive bool) error {
	if nn.safeMode {
		return &vfs.PathError{Op: "remove", Path: path, Err: ErrSafeMode}
	}
	freed, err := nn.ns.remove(path, recursive)
	if err != nil {
		return err
	}
	nn.invalidateBlocks(freed)
	return nn.journal(editRecord{Op: "delete", Path: vfs.Clean(path)})
}

// dropBlocksFrom takes back the blocks a failed append committed: the
// file keeps its first keep blocks and the rest are invalidated.
func (nn *NameNode) dropBlocksFrom(f *inode, keep int) {
	for _, bid := range f.blocks[keep:] {
		f.size -= nn.blocks[bid].len
	}
	nn.invalidateBlocks(f.blocks[keep:])
	f.blocks = f.blocks[:keep]
}

// invalidateBlocks forgets blocks and deletes their replicas on every
// live DataNode holding one.
func (nn *NameNode) invalidateBlocks(ids []BlockID) {
	for _, bid := range ids {
		if bm, ok := nn.blocks[bid]; ok {
			for nodeID := range bm.replicas {
				if dn := nn.datanodes[nodeID]; dn.alive {
					dn.deleteBlock(bid)
				}
			}
			delete(nn.blocks, bid)
		}
	}
}

// Rename moves a file or directory.
func (nn *NameNode) Rename(oldPath, newPath string) error {
	if nn.safeMode {
		return &vfs.PathError{Op: "rename", Path: oldPath, Err: ErrSafeMode}
	}
	if err := nn.ns.rename(oldPath, newPath); err != nil {
		return err
	}
	return nn.journal(editRecord{Op: "rename", Path: vfs.Clean(oldPath), Path2: vfs.Clean(newPath)})
}

// SetReplication changes a file's target replication factor; the
// replication monitor converges the replica count.
func (nn *NameNode) SetReplication(path string, repl int) error {
	if nn.safeMode {
		return &vfs.PathError{Op: "setrep", Path: path, Err: ErrSafeMode}
	}
	if repl < 1 {
		return fmt.Errorf("hdfs: replication %d < 1", repl)
	}
	f := nn.ns.lookup(path)
	if f == nil {
		return &vfs.PathError{Op: "setrep", Path: path, Err: vfs.ErrNotExist}
	}
	if f.dir {
		return &vfs.PathError{Op: "setrep", Path: path, Err: vfs.ErrIsDir}
	}
	nn.setRepl(f, repl)
	return nn.journal(editRecord{Op: "setrep", Path: vfs.Clean(path), Repl: repl})
}

// setRepl sets a file's target replication and its blocks' with it.
func (nn *NameNode) setRepl(f *inode, repl int) {
	f.repl = repl
	for _, bid := range f.blocks {
		if bm, ok := nn.blocks[bid]; ok {
			bm.expected = repl
		}
	}
}

// Stat describes a file or directory.
func (nn *NameNode) Stat(path string) (vfs.FileInfo, error) {
	n := nn.ns.lookup(path)
	if n == nil {
		return vfs.FileInfo{}, &vfs.PathError{Op: "stat", Path: path, Err: vfs.ErrNotExist}
	}
	return vfs.FileInfo{
		Path:        vfs.Clean(path),
		Size:        n.size,
		IsDir:       n.dir,
		Replication: n.repl,
		BlockSize:   nn.cfg.BlockSize,
	}, nil
}

// List returns a directory's children.
func (nn *NameNode) List(path string) ([]vfs.FileInfo, error) {
	n := nn.ns.lookup(path)
	if n == nil {
		return nil, &vfs.PathError{Op: "list", Path: path, Err: vfs.ErrNotExist}
	}
	if !n.dir {
		return nil, &vfs.PathError{Op: "list", Path: path, Err: vfs.ErrNotDir}
	}
	p := vfs.Clean(path)
	var out []vfs.FileInfo
	for _, c := range n.list() {
		out = append(out, vfs.FileInfo{
			Path:        vfs.Join(p, c.name),
			Size:        c.size,
			IsDir:       c.dir,
			Replication: c.repl,
			BlockSize:   nn.cfg.BlockSize,
		})
	}
	return out, nil
}

// BlockLocation describes one block of a file and where its live replicas
// sit — what the JobTracker asks for when scheduling map tasks.
type BlockLocation struct {
	Block  BlockID
	Offset int64
	Length int64
	Nodes  []cluster.NodeID
	Hosts  []string
}

// BlockLocations lists the block layout of a file.
func (nn *NameNode) BlockLocations(path string) ([]BlockLocation, error) {
	f := nn.ns.lookup(path)
	if f == nil {
		return nil, &vfs.PathError{Op: "locations", Path: path, Err: vfs.ErrNotExist}
	}
	if f.dir {
		return nil, &vfs.PathError{Op: "locations", Path: path, Err: vfs.ErrIsDir}
	}
	var out []BlockLocation
	off := int64(0)
	for _, bid := range f.blocks {
		bm := nn.blocks[bid]
		loc := BlockLocation{Block: bid, Offset: off, Length: bm.len, Nodes: nn.usableReplicas(bm)}
		for _, id := range loc.Nodes {
			loc.Hosts = append(loc.Hosts, nn.hostname(id))
		}
		out = append(out, loc)
		off += bm.len
	}
	return out, nil
}

// markCorrupt records a checksum failure reported by a reader and
// invalidates the bad replica so re-replication can restore redundancy.
func (nn *NameNode) markCorrupt(id BlockID, node cluster.NodeID) {
	bm, ok := nn.blocks[id]
	if !ok {
		return
	}
	if !bm.corrupt[node] {
		bm.corrupt[node] = true
		nn.m.corruptionsDetected.Inc()
		nn.auditEv(history.EvAuditCorrupt,
			obs.Attr{Key: "block", Value: id.String()},
			obs.Attr{Key: "node", Value: nn.hostname(node)})
	}
	delete(bm.replicas, node)
	nn.datanodes[node].deleteBlock(id)
}

// --- replication monitor ---

func (nn *NameNode) replicationMonitor() {
	if nn.safeMode {
		return
	}
	ids := make([]BlockID, 0, len(nn.blocks))
	for id := range nn.blocks {
		ids = append(ids, id)
	}
	// Deterministic iteration order.
	slices.Sort(ids)
	now := nn.eng.Now()
	for _, id := range ids {
		bm := nn.blocks[id]
		live := nn.liveReplicas(bm)
		switch {
		case live == 0:
			// Missing: nothing to copy from; fsck will report it.
		case live < bm.expected && !bm.pendingRepl:
			if bm.replRetryAt > now {
				continue // last attempt failed; wait out the backoff
			}
			if nn.scheduleReplication(bm) {
				bm.replRetryAt = 0
			} else {
				bm.replRetryAt = now + replRetryBackoff
			}
		case live > bm.expected:
			nn.dropExcessReplica(bm)
		}
	}
}

// scheduleReplication tries to start one re-replication copy for bm and
// reports whether a copy was scheduled; false sends the block into the
// monitor's retry backoff.
func (nn *NameNode) scheduleReplication(bm *blockMeta) bool {
	// Source: the lowest-id usable replica holder. The sorted list keeps
	// the pick independent of map iteration order, so replays of the same
	// seed re-replicate from (and hence to) the same nodes.
	holders := nn.usableReplicas(bm)
	if len(holders) == 0 {
		return false
	}
	src := holders[0]
	exclude := map[cluster.NodeID]bool{}
	for id := range bm.replicas {
		exclude[id] = true
	}
	for id := range bm.corrupt {
		exclude[id] = true
	}
	targets := nn.chooseTargets(src, 1, exclude)
	if len(targets) == 0 {
		return false
	}
	dst := targets[0]
	srcDN, dstDN := nn.datanodes[src], nn.datanodes[dst]
	// The copy is a data-plane transfer: a partition between source and
	// target stalls re-replication until the network heals (or another
	// source/target pair becomes eligible on a later monitor pass).
	if !nn.net.Reachable(src, dst) {
		return false
	}
	// The copy carries the verified block and its writer's checksum: a
	// later CorruptBlock on the source flips a private copy, not this one.
	sb, readCost, err := srcDN.readBlock(bm.id)
	if err != nil {
		var ce *ChecksumError
		if errors.As(err, &ce) {
			nn.markCorrupt(bm.id, src)
		}
		return false
	}
	bm.pendingRepl = true
	nn.m.replicationsScheduled.Inc()
	nn.auditEv(history.EvAuditRereplicate,
		obs.Attr{Key: "block", Value: bm.id.String()},
		obs.Attr{Key: "dst", Value: nn.hostname(dst)},
		obs.Attr{Key: "src", Value: nn.hostname(src)})
	xfer := nn.cost.Transfer(nn.topo.Distance(src, dst), int64(len(sb.data)))
	blockID := bm.id
	start := nn.eng.Now()
	// Re-replication is NameNode-initiated — no client request above it —
	// so each transfer roots its own trace; "node" blames the source disk.
	if ctx := nn.obs.NewTrace(time.Duration(start)); ctx.Valid() {
		ctx.End("hdfs.rereplicate", time.Duration(start), time.Duration(start)+readCost+xfer, obs.Attrs{
			{Key: "block", Value: blockID.String()},
			{Key: "dst", Value: strconv.Itoa(int(dst))},
			{Key: "node", Value: nn.hostname(src)},
			{Key: "src", Value: strconv.Itoa(int(src))},
		})
	}
	nn.eng.After(readCost+xfer, func() {
		meta, ok := nn.blocks[blockID]
		if !ok {
			return // file deleted meanwhile
		}
		meta.pendingRepl = false
		if !dstDN.alive {
			return
		}
		if _, err := dstDN.writeBlock(blockID, sb); err != nil {
			return
		}
		meta.replicas[dst] = true
		nn.m.replicationsCompleted.Inc()
	})
	return true
}

func (nn *NameNode) dropExcessReplica(bm *blockMeta) {
	// Drop from the most-used live holder, deterministically.
	var victim cluster.NodeID = -1
	var victimUsed int64 = -1
	holders := make([]cluster.NodeID, 0, len(bm.replicas))
	for id := range bm.replicas {
		holders = append(holders, id)
	}
	slices.Sort(holders)
	for _, id := range holders {
		if dn := nn.datanodes[id]; dn.declaredLive && dn.used > victimUsed {
			victim, victimUsed = id, dn.used
		}
	}
	if victim < 0 {
		return
	}
	delete(bm.replicas, victim)
	nn.m.excessReplicasDropped.Inc()
	nn.auditEv(history.EvAuditReplicaDrop,
		obs.Attr{Key: "block", Value: bm.id.String()},
		obs.Attr{Key: "node", Value: nn.hostname(victim)})
	nn.datanodes[victim].deleteBlock(bm.id)
}
