package hdfs_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/vfs"
)

func TestDecommissionDrainsNode(t *testing.T) {
	cfg := hdfs.Config{
		BlockSize:           1 << 10,
		Replication:         2,
		HeartbeatInterval:   time.Second,
		ReplMonitorInterval: time.Second,
	}
	d := newDFS(t, 5, 1, cfg)
	c := d.Client(0)
	data := bytes.Repeat([]byte("drainme!"), 4000)
	if err := vfs.WriteFile(c, "/f", data); err != nil {
		t.Fatal(err)
	}
	// Pick a node actually holding replicas.
	var victim *hdfs.DataNode
	for _, dn := range d.DataNodes() {
		if dn.NumBlocks() > 0 {
			victim = dn
			break
		}
	}
	if victim == nil {
		t.Fatal("no node holds blocks")
	}
	if err := d.NN.StartDecommission(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if d.NN.DecommissionComplete(victim.ID()) {
		t.Fatal("decommission complete before draining")
	}
	// The replication monitor copies the node's replicas elsewhere.
	d.Engine.Advance(2 * time.Minute)
	if !d.NN.DecommissionComplete(victim.ID()) {
		rep, _ := d.Fsck()
		t.Fatalf("drain never completed:\n%s", rep)
	}
	// Now it is safe to stop the daemon: no data loss, still healthy.
	victim.Kill()
	d.Engine.Advance(time.Minute)
	got, err := vfs.ReadFile(c, "/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost after graceful removal: err=%v", err)
	}
	rep, _ := d.Fsck()
	if !rep.Healthy() || rep.UnderReplicated != 0 {
		t.Fatalf("fsck after decommission:\n%s", rep)
	}
}

func TestDecommissionUnknownNode(t *testing.T) {
	d := newDFS(t, 2, 1, hdfs.Config{})
	if err := d.NN.StartDecommission(99); err == nil {
		t.Fatal("decommissioning an unknown node succeeded")
	}
}

func TestDecommissioningNodeGetsNoNewBlocks(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{BlockSize: 512, Replication: 2})
	if err := d.NN.StartDecommission(1); err != nil {
		t.Fatal(err)
	}
	c := d.Client(1) // the writer is the draining node
	if err := vfs.WriteFile(c, "/f", make([]byte, 512*20)); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	for _, loc := range locs {
		for _, n := range loc.Nodes {
			if n == 1 {
				t.Fatalf("draining node received a new replica: %v", loc)
			}
		}
	}
}

// imbalancedDFS writes 12 files with replication 1 from node 2 of four,
// so node 2 holds all 48 blocks; it returns the cluster and node 2's
// client.
func imbalancedDFS(t *testing.T) (*hdfs.MiniDFS, *hdfs.Client) {
	d := newDFS(t, 4, 1, hdfs.Config{BlockSize: 1 << 10, Replication: 1, ReplMonitorInterval: time.Hour})
	c := d.Client(2)
	for i := 0; i < 12; i++ {
		if err := vfs.WriteFile(c, fmt.Sprintf("/f%02d", i), make([]byte, 4<<10)); err != nil {
			t.Fatal(err)
		}
	}
	return d, c
}

func TestBalancerEvensOutUtilization(t *testing.T) {
	d, c := imbalancedDFS(t)
	before := d.UtilizationSpread()
	if before < 1 {
		t.Fatalf("expected heavy imbalance, spread = %.2f", before)
	}
	moves, err := d.Balance(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("balancer moved nothing")
	}
	after := d.UtilizationSpread()
	if after >= before/2 {
		t.Fatalf("spread barely improved: %.2f -> %.2f (%d moves)", before, after, moves)
	}
	// All data still readable, fsck clean.
	for i := 0; i < 12; i++ {
		if _, err := vfs.ReadFile(c, fmt.Sprintf("/f%02d", i)); err != nil {
			t.Fatalf("file %d unreadable after balancing: %v", i, err)
		}
	}
	rep, _ := d.Fsck()
	if !rep.Healthy() {
		t.Fatalf("fsck after balance:\n%s", rep)
	}
}

// TestBalancerHonoursPartitionsAndChecksums: a balancer move is a
// data-plane transfer and a read like any other, so it never crosses a
// network partition, and a replica that fails its checksum is reported to
// the NameNode rather than silently skipped.
func TestBalancerHonoursPartitionsAndChecksums(t *testing.T) {
	t.Run("partition", func(t *testing.T) {
		d, _ := imbalancedDFS(t)
		d.Net.Isolate(0)
		moves, err := d.Balance(0.10)
		if err != nil {
			t.Fatal(err)
		}
		if moves == 0 {
			t.Fatal("balancer moved nothing to the reachable nodes")
		}
		if n := d.DataNode(0).NumBlocks(); n != 0 {
			t.Fatalf("isolated node 0 received %d blocks across the partition", n)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		d, _ := imbalancedDFS(t)
		src := d.DataNode(2)
		ids := src.BlockIDs()
		for _, id := range ids {
			src.CorruptBlock(id)
		}
		moves, err := d.Balance(0.10)
		if err != nil {
			t.Fatal(err)
		}
		if moves != 0 {
			t.Fatalf("balancer moved %d corrupt replicas", moves)
		}
		if got := d.Obs.CounterValue("hdfs.nn.corruptions_detected"); got != int64(len(ids)) {
			t.Fatalf("corruptions detected = %d, want %d", got, len(ids))
		}
		rep, err := d.Fsck()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Healthy() || rep.CorruptReplicas != len(ids) {
			t.Fatalf("fsck after balancing over %d corrupt replicas:\n%s", len(ids), rep)
		}
	})
}

func TestBalancerNoopWhenBalanced(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{BlockSize: 1 << 10, Replication: 3})
	c := d.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(c, "/f", make([]byte, 12<<10)); err != nil {
		t.Fatal(err)
	}
	moves, err := d.Balance(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if moves > 2 {
		t.Fatalf("balancer over-worked a balanced cluster: %d moves", moves)
	}
}
