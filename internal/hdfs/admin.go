package hdfs

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
)

// Decommissioning: the graceful way to remove a DataNode — the opposite
// of the crashes the paper's students inflicted. The NameNode drains the
// node by re-replicating its blocks elsewhere first; only when no block
// depends on the node alone is it safe to stop the daemon.

// StartDecommission marks a DataNode as draining: its replicas stop
// counting toward replication targets, so the replication monitor copies
// them elsewhere. Reads may still use the node while it drains.
func (nn *NameNode) StartDecommission(id cluster.NodeID) error {
	info := nn.dns[id]
	if info == nil {
		return fmt.Errorf("hdfs: node %d is not a registered datanode", id)
	}
	nn.decommissioning[id] = true
	return nil
}

// DecommissionComplete reports whether every block on the node has enough
// replicas elsewhere, i.e. the daemon can be stopped without data loss.
func (nn *NameNode) DecommissionComplete(id cluster.NodeID) bool {
	if !nn.decommissioning[id] {
		return false
	}
	for _, bm := range nn.blocks {
		if !bm.replicas[id] {
			continue
		}
		elsewhere := 0
		for rid := range bm.replicas {
			if rid == id || bm.corrupt[rid] {
				continue
			}
			if info := nn.dns[rid]; info != nil && info.alive {
				elsewhere++
			}
		}
		if elsewhere < min(bm.expected, nn.maxPlaceable(id)) {
			return false
		}
	}
	return true
}

// maxPlaceable returns how many replicas can exist excluding one node —
// bounded by the live node count, so decommissioning on tiny clusters
// completes when every other node has a copy.
func (nn *NameNode) maxPlaceable(excluding cluster.NodeID) int {
	n := 0
	for id, info := range nn.dns {
		if id != excluding && info.alive {
			n++
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Balancer: redistributes replicas from over-full DataNodes to under-full
// ones until node utilisations sit within threshold of the cluster mean —
// `hdfs balancer` at teaching scale. Returns the number of block moves.
func (d *MiniDFS) Balance(threshold float64) (int, error) {
	if threshold <= 0 {
		threshold = 0.10
	}
	moves := 0
	for pass := 0; pass < 1000; pass++ {
		var total int64
		live := 0
		for _, dn := range d.datanodes {
			if dn.Alive() {
				total += dn.used
				live++
			}
		}
		if live < 2 {
			return moves, nil
		}
		mean := float64(total) / float64(live)
		// Most-loaded live node above threshold, least-loaded below.
		var src, dst *DataNode
		for _, dn := range d.datanodes {
			if !dn.Alive() {
				continue
			}
			if float64(dn.used) > mean*(1+threshold) && (src == nil || dn.used > src.used) {
				src = dn
			}
			if float64(dn.used) < mean*(1-threshold) && (dst == nil || dn.used < dst.used) {
				dst = dn
			}
		}
		if src == nil || dst == nil {
			return moves, nil
		}
		if !d.moveOneBlock(src, dst) {
			return moves, nil
		}
		moves++
	}
	return moves, nil
}

// moveOneBlock relocates one replica from src to dst, preferring the
// largest block dst does not already hold. Returns false when no block is
// movable.
func (d *MiniDFS) moveOneBlock(src, dst *DataNode) bool {
	ids := src.BlockIDs()
	sort.Slice(ids, func(i, j int) bool {
		return int64(len(src.blocks[ids[i]].data)) > int64(len(src.blocks[ids[j]].data))
	})
	for _, id := range ids {
		bm, ok := d.NN.blocks[id]
		if !ok || bm.replicas[dst.id] || bm.corrupt[src.id] {
			continue
		}
		sb, readCost, err := src.readBlock(id)
		if err != nil {
			continue
		}
		if _, err := dst.writeBlock(id, sb); err != nil {
			continue
		}
		// Charge the move to the virtual clock.
		d.Engine.Advance(readCost + d.Cost.Transfer(d.Topology.Distance(src.id, dst.id), int64(len(sb.data))))
		bm.replicas[dst.id] = true
		delete(bm.replicas, src.id)
		src.deleteBlock(id)
		return true
	}
	return false
}

// UtilizationSpread returns (maxUsed-minUsed)/mean across live DataNodes,
// the balancer's objective metric.
func (d *MiniDFS) UtilizationSpread() float64 {
	var total, minU, maxU int64
	minU = -1
	live := 0
	for _, dn := range d.datanodes {
		if !dn.Alive() {
			continue
		}
		live++
		total += dn.used
		if minU < 0 || dn.used < minU {
			minU = dn.used
		}
		if dn.used > maxU {
			maxU = dn.used
		}
	}
	if live == 0 || total == 0 {
		return 0
	}
	mean := float64(total) / float64(live)
	return float64(maxU-minU) / mean
}
