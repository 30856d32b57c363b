package hdfs

import (
	"errors"
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
	dn := nn.datanode(id)
	if dn == nil || !dn.registered {
		return fmt.Errorf("hdfs: node %d is not a registered datanode", id)
	}
	dn.draining = true
	return nil
}

// DecommissionComplete reports whether every block on the node has enough
// replicas elsewhere, i.e. the daemon can be stopped without data loss.
func (nn *NameNode) DecommissionComplete(id cluster.NodeID) bool {
	if dn := nn.datanode(id); dn == nil || !dn.draining {
		return false
	}
	for _, bm := range nn.blocks {
		if !bm.replicas[id] {
			continue
		}
		elsewhere := 0
		for rid := range bm.replicas {
			if rid != id && !bm.corrupt[rid] && nn.datanodes[rid].declaredLive {
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
	for _, dn := range nn.datanodes {
		if dn.id != excluding && dn.declaredLive {
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
		// Most-loaded live node above threshold, then the least-loaded
		// one below it that src can reach: a move is a data-plane
		// transfer, so it never crosses a network partition.
		var src, dst *DataNode
		for _, dn := range d.datanodes {
			if dn.Alive() && float64(dn.used) > mean*(1+threshold) && (src == nil || dn.used > src.used) {
				src = dn
			}
		}
		if src == nil {
			return moves, nil
		}
		for _, dn := range d.datanodes {
			if dn.Alive() && float64(dn.used) < mean*(1-threshold) && (dst == nil || dn.used < dst.used) &&
				d.Net.Reachable(src.id, dn.id) {
				dst = dn
			}
		}
		if dst == nil {
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
// largest block dst does not already hold. A replica that fails its
// checksum is reported to the NameNode, as any reader reports it, and
// skipped. Returns false when no block is movable.
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
			var ce *ChecksumError
			if errors.As(err, &ce) {
				d.NN.markCorrupt(id, src.id)
			}
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
