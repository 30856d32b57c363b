package hdfs

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const replicaTestBlock = 64 << 10

// writeThreeBlocks stages a three-block file at replication 3 on four
// nodes and returns the cluster and the bytes written.
func writeThreeBlocks(t *testing.T) (*MiniDFS, []byte) {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(4, 1))
	d, err := NewMiniDFS(eng, topo, Options{Config: Config{BlockSize: replicaTestBlock, Replication: 3}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 3*replicaTestBlock/16)
	if err := vfs.WriteFile(d.Client(GatewayNode), "/f", data); err != nil {
		t.Fatal(err)
	}
	return d, data
}

// replica is one DataNode's stored copy of one block.
type replica struct {
	dn *DataNode
	id BlockID
	sb *storedBlock
}

// replicasOf lists the stored replicas of block id in node order.
func replicasOf(d *MiniDFS, id BlockID) []replica {
	var out []replica
	for _, dn := range d.datanodes {
		if sb, ok := dn.blocks[id]; ok {
			out = append(out, replica{dn, id, sb})
		}
	}
	return out
}

func TestReplicasShareOneBlock(t *testing.T) {
	d, data := writeThreeBlocks(t)
	locs, err := d.NN.BlockLocations("/f")
	if err != nil || len(locs) != 3 {
		t.Fatalf("locations: %+v err=%v", locs, err)
	}
	for _, loc := range locs {
		reps := replicasOf(d, loc.Block)
		if len(reps) != 3 {
			t.Fatalf("%v: %d replicas, want 3", loc.Block, len(reps))
		}
		for _, r := range reps[1:] {
			if &r.sb.data[0] != &reps[0].sb.data[0] || r.sb.sum != reps[0].sb.sum {
				t.Fatalf("%v: the replica on %s has its own copy or checksum", loc.Block, r.dn.Hostname())
			}
		}
	}

	// Corrupting one replica leaves its siblings verified and intact.
	loc := locs[1]
	want := data[loc.Offset : loc.Offset+loc.Length]
	reps := replicasOf(d, loc.Block)
	if !reps[0].dn.CorruptBlock(loc.Block) {
		t.Fatal("corrupt failed")
	}
	if _, _, err := reps[0].dn.readBlock(loc.Block); err == nil {
		t.Fatal("the corrupted replica still verifies")
	}
	for _, r := range reps[1:] {
		sb, _, err := r.dn.readBlock(loc.Block)
		if err != nil || !bytes.Equal(sb.data, want) {
			t.Fatalf("sibling on %s after corruption: equal=%t err=%v", r.dn.Hostname(), err == nil && bytes.Equal(sb.data, want), err)
		}
	}
}

// Storing a replica is a map entry, not a copy: writing each block to
// every one of its targets allocates nothing, and a whole-file write at
// replication 3 does not allocate its bytes once per replica.
func TestReplicaWritesDoNotCopy(t *testing.T) {
	d, data := writeThreeBlocks(t)
	locs, _ := d.NN.BlockLocations("/f")
	var reps []replica
	for _, loc := range locs {
		reps = append(reps, replicasOf(d, loc.Block)...)
	}
	if len(reps) != 9 {
		t.Fatalf("%d replicas, want 9", len(reps))
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, r := range reps {
			if _, err := r.dn.writeBlock(r.id, r.sb); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("storing 3 blocks × 3 replicas made %.0f allocations, want 0", allocs)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := vfs.WriteFile(d.Client(GatewayNode), "/g", data); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// ~1× the file today (~2× under -race, which makes the writer's buffer
	// through a second allocation); one copy per replica would be ≥ 4×.
	if got := after.TotalAlloc - before.TotalAlloc; got >= 3*uint64(len(data)) {
		t.Fatalf("writing %d bytes at replication 3 allocated %d bytes; one copy per replica would be ~%d",
			len(data), got, 4*len(data))
	}
}
