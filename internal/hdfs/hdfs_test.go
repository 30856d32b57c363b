package hdfs_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

func newDFS(t *testing.T, nodes, racks int, cfg hdfs.Config) *hdfs.MiniDFS {
	t.Helper()
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(nodes, racks))
	d, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: cfg, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestClientConformance(t *testing.T) {
	vfstest.Run(t, "hdfs", func(t *testing.T) vfs.FileSystem {
		return newDFS(t, 4, 1, hdfs.Config{}).Client(0)
	})
}

func TestWriteSplitsIntoBlocks(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{BlockSize: 1024, Replication: 2})
	c := d.Client(0)
	data := bytes.Repeat([]byte("x"), 2500)
	if err := vfs.WriteFile(c, "/f", data); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 {
		t.Fatalf("blocks = %d, want 3", len(locs))
	}
	if locs[0].Length != 1024 || locs[1].Length != 1024 || locs[2].Length != 452 {
		t.Fatalf("block lengths: %d %d %d", locs[0].Length, locs[1].Length, locs[2].Length)
	}
	for i, loc := range locs {
		if len(loc.Nodes) != 2 {
			t.Fatalf("block %d has %d replicas, want 2", i, len(loc.Nodes))
		}
		if loc.Nodes[0] == loc.Nodes[1] {
			t.Fatalf("block %d replicas on same node", i)
		}
	}
	got, err := vfs.ReadFile(c, "/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read-back mismatch: %d bytes err=%v", len(got), err)
	}
}

func TestWriterLocalPlacement(t *testing.T) {
	d := newDFS(t, 8, 2, hdfs.Config{BlockSize: 512, Replication: 3})
	c := d.Client(3)
	if err := vfs.WriteFile(c, "/f", make([]byte, 2000)); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	for i, loc := range locs {
		found := false
		for _, n := range loc.Nodes {
			if n == 3 {
				found = true
			}
		}
		if !found {
			t.Fatalf("block %d has no replica on writer node: %v", i, loc.Nodes)
		}
		// Default policy: replicas must span at least two racks when
		// the cluster has them.
		racks := map[int]bool{}
		for _, n := range loc.Nodes {
			racks[d.Topology.RackOf(n)] = true
		}
		if len(racks) < 2 {
			t.Fatalf("block %d replicas confined to one rack: %v", i, loc.Nodes)
		}
	}
}

func TestGatewayWriteSpreadsReplicas(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{Replication: 3})
	c := d.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(c, "/f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	if len(locs) != 1 || len(locs[0].Nodes) != 3 {
		t.Fatalf("locations: %+v", locs)
	}
}

func TestLocalReadIsLocal(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{Replication: 2})
	w := d.Client(1)
	if err := vfs.WriteFile(w, "/f", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	r := d.Client(1)
	if _, err := vfs.ReadFile(r, "/f"); err != nil {
		t.Fatal(err)
	}
	if r.Meter.BytesReadLocal != 4096 || r.Meter.BytesReadRemote != 0 {
		t.Fatalf("meter: %+v, want all local", r.Meter)
	}
	// A client with no replica on its node reads over the network.
	far := d.Client(3)
	locs, _ := far.BlockLocations("/f")
	for _, n := range locs[0].Nodes {
		if n == 3 {
			t.Skip("replica landed on node 3 by chance")
		}
	}
	if _, err := vfs.ReadFile(far, "/f"); err != nil {
		t.Fatal(err)
	}
	if far.Meter.BytesReadLocal != 0 || far.Meter.BytesRead() != 4096 {
		t.Fatalf("far meter: %+v", far.Meter)
	}
}

func TestReadRangeMatchesFullRead(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{BlockSize: 700})
	c := d.Client(0)
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 5000)
	rng.Read(data)
	if err := vfs.WriteFile(c, "/f", data); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		off := rng.Int63n(5000)
		length := rng.Int63n(2000)
		got, err := c.ReadRange("/f", off, length)
		if err != nil {
			t.Fatal(err)
		}
		end := off + length
		if end > 5000 {
			end = 5000
		}
		if !bytes.Equal(got, data[off:end]) {
			t.Fatalf("range [%d,%d) mismatch", off, end)
		}
		if cap(got) != len(got) {
			t.Fatalf("range [%d,%d): %d-byte buffer for %d bytes; the range is known up front", off, end, cap(got), len(got))
		}
	}
	whole, err := vfs.ReadFile(c, "/f")
	if err != nil || !bytes.Equal(whole, data) {
		t.Fatalf("whole-file read: err=%v, %d bytes", err, len(whole))
	}
	if cap(whole) != len(whole) {
		t.Fatalf("whole-file read: %d-byte buffer for %d bytes; the size is known up front", cap(whole), len(whole))
	}
}

func TestCorruptionDetectedAndRepaired(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{Replication: 3, ReplMonitorInterval: time.Second})
	c := d.Client(0)
	data := bytes.Repeat([]byte("hdfs"), 1000)
	if err := vfs.WriteFile(c, "/f", data); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	victim := locs[0].Nodes[0]
	if !d.DataNode(victim).CorruptBlock(locs[0].Block) {
		t.Fatal("corrupt failed")
	}
	// Read from the victim's own node: client must fall back to another
	// replica and report the corruption.
	rc := d.Client(victim)
	got, err := vfs.ReadFile(rc, "/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read with corrupt local replica: err=%v", err)
	}
	if got := d.Obs.CounterValue("hdfs.nn.corruptions_detected"); got != 1 {
		t.Fatalf("corruptions detected = %d", got)
	}
	// Replication monitor restores the third replica.
	d.Engine.Advance(time.Minute)
	locs, _ = c.BlockLocations("/f")
	if len(locs[0].Nodes) != 3 {
		t.Fatalf("replicas after repair = %d, want 3", len(locs[0].Nodes))
	}
	rep, _ := d.Fsck()
	if !rep.Healthy() || rep.UnderReplicated != 0 {
		t.Fatalf("fsck after repair: %s", rep)
	}
}

func TestAllReplicasCorruptFailsRead(t *testing.T) {
	d := newDFS(t, 3, 1, hdfs.Config{Replication: 2})
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/f", []byte("doomed data here")); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	for _, n := range locs[0].Nodes {
		d.DataNode(n).CorruptBlock(locs[0].Block)
	}
	if _, err := vfs.ReadFile(c, "/f"); !errors.Is(err, vfs.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// A re-replication copy carries the bytes its source verified when the
// copy began. Corruption of the source after that must not travel with
// it — least of all under a checksum made over the corrupt bytes, which
// would make the bad copy verify.
func TestInFlightCopyIgnoresLaterCorruption(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{Replication: 2, ReplMonitorInterval: time.Second})
	c := d.Client(hdfs.GatewayNode)
	data := bytes.Repeat([]byte("replica "), 512)
	if err := vfs.WriteFile(c, "/f", data); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	if err := c.SetReplication("/f", 3); err != nil {
		t.Fatal(err)
	}
	d.Engine.Advance(time.Second) // the monitor schedules the copy
	for _, n := range locs[0].Nodes {
		if !d.DataNode(n).CorruptBlock(locs[0].Block) {
			t.Fatalf("corrupt on %d failed", n)
		}
	}
	d.Engine.Advance(time.Minute)
	got, err := vfs.ReadFile(c, "/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after corrupting both sources of an in-flight copy: %d bytes, equal=%t, err=%v",
			len(got), bytes.Equal(got, data), err)
	}
}

func TestDataNodeDeathTriggersReReplication(t *testing.T) {
	cfg := hdfs.Config{
		Replication:         3,
		HeartbeatInterval:   time.Second,
		HeartbeatExpiry:     5 * time.Second,
		ReplMonitorInterval: time.Second,
	}
	d := newDFS(t, 6, 2, cfg)
	c := d.Client(0)
	data := bytes.Repeat([]byte("block"), 2000)
	if err := vfs.WriteFile(c, "/f", data); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	victim := locs[0].Nodes[0]
	d.DataNode(victim).Kill()

	// Before expiry the NameNode still believes in the dead replicas.
	d.Engine.Advance(2 * time.Second)
	// After expiry + monitor pass + copy time, redundancy is restored.
	d.Engine.Advance(30 * time.Second)
	rep, err := d.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnderReplicated != 0 || !rep.Healthy() {
		t.Fatalf("fsck after re-replication:\n%s", rep)
	}
	locs, _ = c.BlockLocations("/f")
	for _, loc := range locs {
		if len(loc.Nodes) != 3 {
			t.Fatalf("block %v has %d live replicas", loc.Block, len(loc.Nodes))
		}
		for _, n := range loc.Nodes {
			if n == victim {
				t.Fatalf("dead node still listed for %v", loc.Block)
			}
		}
	}
	if got, err := vfs.ReadFile(c, "/f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost after re-replication: err=%v", err)
	}
}

func TestAllHoldersDeadMeansMissing(t *testing.T) {
	cfg := hdfs.Config{
		Replication:       2,
		HeartbeatInterval: time.Second,
		HeartbeatExpiry:   3 * time.Second,
	}
	d := newDFS(t, 3, 1, cfg)
	c := d.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(c, "/f", []byte("precious")); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	for _, n := range locs[0].Nodes {
		d.DataNode(n).WipeAndKill()
	}
	d.Engine.Advance(10 * time.Second)
	rep, _ := d.Fsck()
	if rep.Healthy() || rep.MissingBlocks != 1 {
		t.Fatalf("fsck should report missing block:\n%s", rep)
	}
	if rep.Status() != "CORRUPT" {
		t.Fatalf("status = %s", rep.Status())
	}
}

func TestSetReplicationConverges(t *testing.T) {
	cfg := hdfs.Config{Replication: 1, ReplMonitorInterval: time.Second}
	d := newDFS(t, 5, 1, cfg)
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/f", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := d.NN.SetReplication("/f", 4); err != nil {
		t.Fatal(err)
	}
	d.Engine.Advance(time.Minute)
	locs, _ := c.BlockLocations("/f")
	if len(locs[0].Nodes) != 4 {
		t.Fatalf("replicas = %d, want 4", len(locs[0].Nodes))
	}
	// And back down: excess replicas are invalidated.
	if err := d.NN.SetReplication("/f", 2); err != nil {
		t.Fatal(err)
	}
	d.Engine.Advance(time.Minute)
	locs, _ = c.BlockLocations("/f")
	if len(locs[0].Nodes) != 2 {
		t.Fatalf("replicas after setrep 2 = %d", len(locs[0].Nodes))
	}
}

func TestDeleteFreesDataNodeSpace(t *testing.T) {
	d := newDFS(t, 3, 1, hdfs.Config{Replication: 3})
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/big", make([]byte, 10000)); err != nil {
		t.Fatal(err)
	}
	var before int64
	for _, dn := range d.DataNodes() {
		before += dn.UsedBytes()
	}
	if before != 30000 {
		t.Fatalf("bytes before delete = %d, want 30000", before)
	}
	if err := c.Remove("/big", false); err != nil {
		t.Fatal(err)
	}
	var after int64
	for _, dn := range d.DataNodes() {
		after += dn.UsedBytes()
	}
	if after != 0 {
		t.Fatalf("bytes after delete = %d", after)
	}
}

func TestNameNodeRestartSafeMode(t *testing.T) {
	cfg := hdfs.Config{Replication: 2, HeartbeatInterval: time.Second}
	d := newDFS(t, 4, 1, cfg)
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/f", make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	d.NN.Restart()
	if !d.NN.InSafeMode() {
		t.Fatal("restart should enter safe mode")
	}
	// Mutations are refused in safe mode.
	if err := c.Mkdir("/newdir"); !errors.Is(err, hdfs.ErrSafeMode) {
		t.Fatalf("want ErrSafeMode, got %v", err)
	}
	if _, err := c.Create("/g"); !errors.Is(err, hdfs.ErrSafeMode) {
		t.Fatalf("create in safe mode: %v", err)
	}
	// Heartbeats trigger re-registration and block reports; safe mode exits.
	d.Engine.Advance(5 * time.Second)
	if d.NN.InSafeMode() {
		t.Fatal("safe mode did not exit after block reports")
	}
	if err := c.Mkdir("/newdir"); err != nil {
		t.Fatal(err)
	}
	// Data survived the restart.
	if data, err := vfs.ReadFile(c, "/f"); err != nil || len(data) != 500 {
		t.Fatalf("data after restart: %d bytes err=%v", len(data), err)
	}
}

func TestDataNodeRestartIntegrityScanTakesTime(t *testing.T) {
	// The paper: "it typically took at least fifteen minutes for all the
	// Data Nodes to check for data integrity and report back". Verify the
	// scan time scales with stored bytes: a DataNode holding ~100 GB at
	// 120 MB/s needs ~14 minutes before it reports back.
	cfg := hdfs.Config{Replication: 1, BlockSize: 64 << 20, HeartbeatInterval: time.Second, HeartbeatExpiry: 5 * time.Second}
	eng := sim.NewEngine()
	topo := cluster.NewTopology(cluster.PaperNodeConfig(2, 1))
	d, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Config: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fake bulk data cheaply: write a small block, then scale expectation
	// analytically via the DataNode's own cost model by writing many
	// blocks is too slow — instead verify the ordering property on
	// moderate data.
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/bulk", make([]byte, 8<<20)); err != nil {
		t.Fatal(err)
	}
	dn := d.DataNode(0)
	if dn.UsedBytes() == 0 {
		t.Skip("no replica on node 0")
	}
	dn.Kill()
	eng.Advance(10 * time.Second)
	restartAt := eng.Now()
	dn.Start()
	// Immediately after start the node has not yet re-registered (scan in
	// progress): its replicas are still unlisted.
	eng.Advance(time.Millisecond)
	rep, _ := d.Fsck()
	if rep.Healthy() {
		t.Fatal("node should not have reported back yet")
	}
	eng.Advance(time.Minute)
	rep, _ = d.Fsck()
	if !rep.Healthy() {
		t.Fatalf("node never reported back:\n%s", rep)
	}
	if d.NN.SafeModeExitedAt() <= restartAt {
		// Safe mode was already off; fine — the assertion above covers
		// the scan delay.
		t.Log("safe mode was not re-entered (expected: only NN restarts re-enter)")
	}
}

func TestWritePipelineShrinksOnFailure(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{Replication: 3, ReplMonitorInterval: time.Second})
	// Make one DataNode reject the next write: the pipeline must shrink
	// and the file still lands with the remaining replicas; the monitor
	// then restores full replication.
	d.DataNode(1).FailNextWrites = 1
	c := d.Client(1) // writer-local target is the failing node
	if err := vfs.WriteFile(c, "/f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	if len(locs[0].Nodes) != 2 {
		t.Fatalf("replicas after shrink = %d, want 2", len(locs[0].Nodes))
	}
	d.Engine.Advance(30 * time.Second)
	locs, _ = c.BlockLocations("/f")
	if len(locs[0].Nodes) != 3 {
		t.Fatalf("monitor did not restore replication: %d", len(locs[0].Nodes))
	}
}

func TestNoDataNodesFailsWrite(t *testing.T) {
	d := newDFS(t, 2, 1, hdfs.Config{HeartbeatInterval: time.Second, HeartbeatExpiry: 2 * time.Second})
	for _, dn := range d.DataNodes() {
		dn.Kill()
	}
	d.Engine.Advance(10 * time.Second)
	c := d.Client(hdfs.GatewayNode)
	err := vfs.WriteFile(c, "/f", []byte("x"))
	if err == nil {
		t.Fatal("write with no datanodes succeeded")
	}
}

func TestStagingCostScalesWithSize(t *testing.T) {
	d := newDFS(t, 8, 1, hdfs.Config{BlockSize: 1 << 20})
	small := d.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(small, "/small", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	big := d.Client(hdfs.GatewayNode)
	if err := vfs.WriteFile(big, "/big", make([]byte, 16<<20)); err != nil {
		t.Fatal(err)
	}
	if big.Meter.WriteTime < 10*small.Meter.WriteTime {
		t.Fatalf("16x data should cost ≈16x time: small=%v big=%v",
			small.Meter.WriteTime, big.Meter.WriteTime)
	}
}

func TestAutoAdvanceMovesClock(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{})
	c := d.Client(hdfs.GatewayNode)
	c.AutoAdvance = true
	before := d.Engine.Now()
	if err := vfs.WriteFile(c, "/f", make([]byte, 4<<20)); err != nil {
		t.Fatal(err)
	}
	if d.Engine.Now() <= before {
		t.Fatal("AutoAdvance did not move the virtual clock")
	}
}

func TestFsckReportFormat(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{Replication: 2})
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/data/f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"Total blocks:\t1", "is HEALTHY", "live data-nodes:\t4"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("fsck output missing %q:\n%s", want, s)
		}
	}
	if rep.AvgReplicationFactor != 2 {
		t.Fatalf("avg replication = %.2f", rep.AvgReplicationFactor)
	}
}

func TestBlockReportDropsStaleReplicas(t *testing.T) {
	// A DataNode that lost a block (wiped) stops being listed after its
	// next block report, even without dying.
	cfg := hdfs.Config{Replication: 2, BlockReportInterval: 5 * time.Second, ReplMonitorInterval: 100 * time.Hour}
	d := newDFS(t, 3, 1, cfg)
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	holder := locs[0].Nodes[0]
	// Simulate local deletion behind the NameNode's back.
	dnBlocks := d.DataNode(holder).BlockIDs()
	for _, b := range dnBlocks {
		d.DataNode(holder).CorruptBlock(b) // make it unreadable too
	}
	d.Engine.Advance(6 * time.Second)
	// Replica still listed (corruption is only found at read).
	locs, _ = c.BlockLocations("/f")
	if len(locs[0].Nodes) != 2 {
		t.Skip("block report semantics: corrupt-but-present replicas remain listed")
	}
}

func TestDeterministicPlacement(t *testing.T) {
	run := func() []string {
		eng := sim.NewEngine()
		topo := cluster.NewTopology(cluster.PaperNodeConfig(8, 2))
		d, err := hdfs.NewMiniDFS(eng, topo, hdfs.Options{Seed: 7, Config: hdfs.Config{BlockSize: 256}})
		if err != nil {
			t.Fatal(err)
		}
		c := d.Client(0)
		if err := vfs.WriteFile(c, "/f", make([]byte, 2048)); err != nil {
			t.Fatal(err)
		}
		locs, _ := c.BlockLocations("/f")
		var out []string
		for _, l := range locs {
			out = append(out, l.Hosts...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("placement lists differ in length: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement not deterministic: %v vs %v", a, b)
		}
	}
}

func TestStatusPage(t *testing.T) {
	d := newDFS(t, 4, 1, hdfs.Config{Replication: 2, HeartbeatInterval: time.Second, HeartbeatExpiry: 3 * time.Second})
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/f", make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	page := d.StatusPage()
	for _, want := range []string{"Live nodes: 4", "Dead nodes: 0", "Blocks: 1", "node000"} {
		if !strings.Contains(page, want) {
			t.Fatalf("status page missing %q:\n%s", want, page)
		}
	}
	d.DataNode(3).Kill()
	d.Engine.Advance(10 * time.Second)
	page = d.StatusPage()
	if !strings.Contains(page, "Dead nodes: 1") {
		t.Fatalf("dead node not shown:\n%s", page)
	}
}

func TestRandomPlacementIgnoresWriter(t *testing.T) {
	// With random placement, the writer's node gets a replica only by
	// chance; over many blocks the writer-local fraction must be well
	// below the ~100% of the default policy.
	count := func(random bool) int {
		d := newDFS(t, 8, 2, hdfs.Config{BlockSize: 256, Replication: 2, RandomPlacement: random})
		c := d.Client(2)
		if err := vfs.WriteFile(c, "/f", make([]byte, 256*40)); err != nil {
			t.Fatal(err)
		}
		locs, _ := c.BlockLocations("/f")
		writerLocal := 0
		for _, loc := range locs {
			for _, n := range loc.Nodes {
				if n == 2 {
					writerLocal++
				}
			}
		}
		return writerLocal
	}
	def := count(false)
	rnd := count(true)
	if def != 40 {
		t.Fatalf("default policy writer-local blocks = %d/40", def)
	}
	if rnd >= def {
		t.Fatalf("random placement writer-local blocks = %d, want < %d", rnd, def)
	}
}
