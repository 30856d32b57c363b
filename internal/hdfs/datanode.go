package hdfs

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// DataNode stores block replicas on one machine's local disk and reports
// to the NameNode via heartbeats and block reports — the daemons the
// students crashed with leaky jobs in the paper's first semester.
type DataNode struct {
	id   cluster.NodeID
	node *cluster.Node
	nn   *NameNode
	eng  *sim.Engine
	cost cluster.CostModel

	blocks map[BlockID]*storedBlock
	used   int64
	alive  bool

	// m is the cluster-wide DataNode metric bundle (shared by all nodes).
	m *dnMetrics

	// preloadedBytes models data that sits on the node's disk without a
	// real payload in the simulation — e.g. the 171 GB Google Trace the
	// paper pre-loaded on the dedicated cluster. It only affects the
	// startup integrity-scan time and UsedBytes accounting.
	preloadedBytes int64

	hbTicker *sim.Ticker
	brTicker *sim.Ticker

	// FailNextWrites makes the next n block writes fail (fault injection).
	FailNextWrites int

	// slow multiplies modelled disk costs (fault injection: a degraded
	// spindle). 0 or 1 means a healthy disk.
	slow float64

	// muteUntil suppresses heartbeats and block reports before this
	// instant (fault injection): the daemon keeps running and serving
	// data, but the NameNode stops hearing from it.
	muteUntil sim.Time
}

// storedBlock is a block's bytes and the checksum the writer made over
// them. A written block never changes, so every replica of it — pipeline
// targets, re-replication copies, balancer moves — holds the same
// *storedBlock; CorruptBlock gives its own replica a private copy first.
type storedBlock struct {
	data []byte
	sum  uint32
}

func checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// ID returns the node this DataNode runs on.
func (dn *DataNode) ID() cluster.NodeID { return dn.id }

// Hostname returns the machine hostname.
func (dn *DataNode) Hostname() string { return dn.node.Hostname }

// Alive reports whether the daemon is running.
func (dn *DataNode) Alive() bool { return dn.alive }

// UsedBytes returns the local-disk bytes consumed by replicas, including
// any preloaded (payload-free) data.
func (dn *DataNode) UsedBytes() int64 { return dn.used + dn.preloadedBytes }

// SetPreloadedBytes declares payload-free bulk data on the node's disk
// (see preloadedBytes). It lengthens restart integrity scans.
func (dn *DataNode) SetPreloadedBytes(n int64) {
	if n < 0 {
		n = 0
	}
	dn.preloadedBytes = n
}

// NumBlocks returns the replica count held locally.
func (dn *DataNode) NumBlocks() int { return len(dn.blocks) }

// BlockIDs returns the held block IDs, sorted (for deterministic reports).
func (dn *DataNode) BlockIDs() []BlockID {
	ids := make([]BlockID, 0, len(dn.blocks))
	for id := range dn.blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Start registers with the NameNode and begins heartbeating. If the node
// holds blocks from a previous life (a restart), it first runs the local
// integrity scan the paper describes — "it typically took at least
// fifteen minutes for all the Data Nodes to check for data integrity and
// report back to the Name Node" — whose duration scales with stored bytes.
func (dn *DataNode) Start() {
	if dn.alive {
		return
	}
	dn.alive = true
	scan := dn.integrityScanTime()
	dn.eng.After(scan, func() {
		if !dn.alive {
			return
		}
		dn.nn.register(dn)
		dn.sendBlockReport()
		dn.hbTicker = dn.eng.Every(dn.nn.cfg.HeartbeatInterval, dn.sendHeartbeat)
		dn.brTicker = dn.eng.Every(dn.nn.cfg.BlockReportInterval, dn.sendBlockReport)
	})
}

// integrityScanTime models the startup verification pass over local data.
func (dn *DataNode) integrityScanTime() time.Duration {
	total := dn.used + dn.preloadedBytes
	if total == 0 {
		return dn.cost.DiskSeek
	}
	return dn.cost.DiskRead(total)
}

// Kill stops the daemon abruptly (a crash). Replica data stays on disk —
// a later Start will re-verify and re-report it.
func (dn *DataNode) Kill() {
	if !dn.alive {
		return
	}
	dn.alive = false
	if dn.hbTicker != nil {
		dn.hbTicker.Stop()
	}
	if dn.brTicker != nil {
		dn.brTicker.Stop()
	}
}

// WipeAndKill simulates losing the machine and its disk entirely.
func (dn *DataNode) WipeAndKill() {
	dn.Kill()
	dn.blocks = map[BlockID]*storedBlock{}
	dn.used = 0
}

// DropHeartbeatsFor mutes the DataNode's control-plane traffic (heartbeats
// and block reports) for the next d of virtual time. If d outlives the
// NameNode's HeartbeatExpiry the node is declared dead and its blocks
// re-replicated; when the window ends the node's next heartbeat revives it
// and triggers an immediate block report.
func (dn *DataNode) DropHeartbeatsFor(d time.Duration) {
	until := dn.eng.Now() + d
	if until > dn.muteUntil {
		dn.muteUntil = until
	}
}

func (dn *DataNode) muted() bool { return dn.eng.Now() < dn.muteUntil }

// SetDiskSlowdown degrades (or restores, with f <= 1) the node's disk by
// multiplying modelled read/write costs — the classic straggler cause the
// tracing lab asks students to find from the trace waterfall alone.
func (dn *DataNode) SetDiskSlowdown(f float64) {
	if f < 0 {
		f = 0
	}
	dn.slow = f
}

// diskCost applies the configured slowdown to a modelled disk cost.
func (dn *DataNode) diskCost(d time.Duration) time.Duration {
	if dn.slow > 1 {
		return time.Duration(float64(d) * dn.slow)
	}
	return d
}

func (dn *DataNode) sendHeartbeat() {
	if dn.alive && !dn.muted() {
		dn.m.heartbeatsSent.Inc()
		dn.nn.heartbeat(dn.id)
	}
}

func (dn *DataNode) sendBlockReport() {
	if !dn.alive || dn.muted() {
		return
	}
	dn.m.blockReportsSent.Inc()
	dn.nn.blockReport(dn.id, dn.BlockIDs())
}

// writeBlock stores a replica locally: the block itself, not a copy (see
// storedBlock). Returns the modelled disk cost.
func (dn *DataNode) writeBlock(id BlockID, sb *storedBlock) (time.Duration, error) {
	if !dn.alive {
		return 0, fmt.Errorf("hdfs: datanode %s is down", dn.node.Hostname)
	}
	if dn.FailNextWrites > 0 {
		dn.FailNextWrites--
		return 0, fmt.Errorf("hdfs: injected write failure on %s", dn.node.Hostname)
	}
	n := int64(len(sb.data))
	if dn.node.DiskBytes > 0 && dn.used+n > dn.node.DiskBytes {
		return 0, fmt.Errorf("hdfs: datanode %s out of space", dn.node.Hostname)
	}
	if old, ok := dn.blocks[id]; ok {
		dn.used -= int64(len(old.data))
	}
	dn.blocks[id] = sb
	dn.used += n
	cost := dn.diskCost(dn.cost.DiskWrite(n))
	dn.m.blocksWritten.Inc()
	dn.m.bytesWritten.Add(n)
	dn.m.diskWriteTime.Observe(cost)
	return cost, nil
}

// readBlock returns a replica after verifying its checksum, plus the
// modelled disk cost. A corrupted replica returns a *ChecksumError. The
// caller must not modify the returned block's bytes.
func (dn *DataNode) readBlock(id BlockID) (*storedBlock, time.Duration, error) {
	if !dn.alive {
		return nil, 0, fmt.Errorf("hdfs: datanode %s is down", dn.node.Hostname)
	}
	sb, ok := dn.blocks[id]
	if !ok {
		return nil, 0, fmt.Errorf("hdfs: %v not on %s", id, dn.node.Hostname)
	}
	cost := dn.diskCost(dn.cost.DiskRead(int64(len(sb.data))))
	if checksum(sb.data) != sb.sum {
		dn.m.checksumFailures.Inc()
		return nil, cost, &ChecksumError{Block: id, Node: dn.node.Hostname}
	}
	dn.m.blocksRead.Inc()
	dn.m.bytesRead.Add(int64(len(sb.data)))
	dn.m.diskReadTime.Observe(cost)
	return sb, cost, nil
}

// deleteBlock removes a replica (invalidation from the NameNode).
func (dn *DataNode) deleteBlock(id BlockID) {
	if sb, ok := dn.blocks[id]; ok {
		dn.used -= int64(len(sb.data))
		delete(dn.blocks, id)
		dn.m.blocksDeleted.Inc()
	}
}

// CorruptBlock flips a byte of the stored replica without updating the
// stored checksum, simulating silent disk corruption. The flip lands in a
// private copy, so the other replicas of the block — and any copy in
// flight from this one — keep the bytes that were written. Reports
// whether the replica existed.
func (dn *DataNode) CorruptBlock(id BlockID) bool {
	sb, ok := dn.blocks[id]
	if !ok || len(sb.data) == 0 {
		return false
	}
	data := bytes.Clone(sb.data)
	data[len(data)/2] ^= 0xFF
	dn.blocks[id] = &storedBlock{data: data, sum: sb.sum}
	return true
}

// ChecksumError reports a corrupt replica detected at read time.
type ChecksumError struct {
	Block BlockID
	Node  string
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("hdfs: checksum mismatch for %v on %s", e.Block, e.Node)
}
