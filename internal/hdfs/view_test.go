package hdfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// viewDFS is a four-node, one-rack cluster with 64 KiB blocks.
func viewDFS(t testing.TB, repl int) *MiniDFS {
	t.Helper()
	d, err := NewMiniDFS(sim.NewEngine(), cluster.NewTopology(cluster.PaperNodeConfig(4, 1)), Options{
		Config: Config{BlockSize: replicaTestBlock, Replication: repl, ReplMonitorInterval: time.Hour},
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// pattern is n bytes that differ from their neighbours' block offsets.
func pattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	return data
}

// storedAt returns the stored block holding file offset off of path, and
// off's position in it.
func storedAt(t *testing.T, d *MiniDFS, path string, off int64) (*storedBlock, int) {
	t.Helper()
	locs, err := d.NN.BlockLocations(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs {
		if off >= loc.Offset && off < loc.Offset+loc.Length {
			return d.datanodes[loc.Nodes[0]].blocks[loc.Block], int(off - loc.Offset)
		}
	}
	t.Fatalf("no block of %s holds offset %d", path, off)
	return nil, 0
}

// readRangeEq reads [off, off+length) of path and checks it against want.
func readRangeEq(t *testing.T, c *Client, path string, off, length int64, want []byte) []byte {
	t.Helper()
	got, err := c.ReadRange(path, off, length)
	if err != nil {
		t.Fatalf("ReadRange(%s, %d, %d): %v", path, off, length, err)
	}
	end := min(off+length, int64(len(want)))
	if !bytes.Equal(got, want[off:end]) {
		t.Fatalf("ReadRange(%s, %d, %d): wrong bytes", path, off, length)
	}
	return got
}

// A range inside one write is a view of the stored bytes: no copy, the
// capacity clipped to the range, so appending to it copies and storage —
// and every later read — keeps the written bytes.
func TestReadRangeIsAViewOfTheWrittenBytes(t *testing.T) {
	d := viewDFS(t, 3)
	data := pattern(4 * replicaTestBlock)
	if err := vfs.WriteFile(d.Client(GatewayNode), "/f", data); err != nil {
		t.Fatal(err)
	}
	c := d.Client(0)
	off, length := int64(100), int64(len(data)-300)
	got := readRangeEq(t, c, "/f", off, length, data)
	sb, i := storedAt(t, d, "/f", off)
	if &got[0] != &sb.data[i] {
		t.Fatal("a range inside one write was copied")
	}
	if cap(got) != len(got) {
		t.Fatalf("view has capacity %d past its %d bytes", cap(got), len(got))
	}
	if c.Meter.BytesRead() != int64(len(data)) {
		t.Fatalf("metered %d bytes, want the 4 touched blocks' %d", c.Meter.BytesRead(), len(data))
	}

	grown := append(got, 0xEE, 0xEE)
	grown[0] ^= 0xFF
	readRangeEq(t, c, "/f", off-1, length+3, data)
	whole, err := vfs.ReadFile(c, "/f")
	if err != nil || !bytes.Equal(whole, data) {
		t.Fatalf("storage changed under an append to a view: err=%v", err)
	}
}

// Pieces from different writes, or read with a view not allowed (Open,
// ReadFile), come back in one buffer the caller owns.
func TestReadRangeAcrossAnAppendCopies(t *testing.T) {
	d := viewDFS(t, 3)
	w := d.Client(GatewayNode)
	data := pattern(4*replicaTestBlock + 10)
	cuts := []int{0, 3 * replicaTestBlock / 2, 3*replicaTestBlock + 7, len(data)}
	for i := 1; i < len(cuts); i++ {
		if err := vfs.AppendFile(w, "/f", data[cuts[i-1]:cuts[i]]); err != nil {
			t.Fatal(err)
		}
	}
	c := d.Client(1)
	for _, r := range []struct{ off, length int64 }{
		{0, int64(len(data))},         // all three writes
		{int64(cuts[1]) - 5, 10},      // across the first append boundary
		{int64(cuts[2]) - 1, 2},       // across the second
		{int64(cuts[1]) + 3, 1 << 20}, // from inside the second write to EOF
	} {
		got := readRangeEq(t, c, "/f", r.off, r.length, data)
		got[0] ^= 0xFF // the caller's own bytes
		readRangeEq(t, c, "/f", r.off, r.length, data)
	}
	// A range inside the second write is still a view.
	got := readRangeEq(t, c, "/f", int64(cuts[1])+1, replicaTestBlock, data)
	if sb, i := storedAt(t, d, "/f", int64(cuts[1])+1); &got[0] != &sb.data[i] {
		t.Fatal("a range inside one append was copied")
	}
	whole, err := c.ReadFile("/f")
	if err != nil || !bytes.Equal(whole, data) {
		t.Fatalf("ReadFile: err=%v", err)
	}
	if sb, _ := storedAt(t, d, "/f", 0); &whole[0] == &sb.data[0] {
		t.Fatal("ReadFile returned the stored bytes, not the caller's own")
	}
}

// A range whose nearest replica is corrupt is read from a sibling, which
// holds the written bytes, so it is still right — and still a view.
func TestReadRangeOverACorruptReplica(t *testing.T) {
	d := viewDFS(t, 3)
	data := pattern(3 * replicaTestBlock)
	if err := vfs.WriteFile(d.Client(GatewayNode), "/f", data); err != nil {
		t.Fatal(err)
	}
	locs, _ := d.NN.BlockLocations("/f")
	mid := locs[1]
	reader := mid.Nodes[0] // holds a replica: the client's nearest
	if !d.datanodes[reader].CorruptBlock(mid.Block) {
		t.Fatal("corrupt failed")
	}
	c := d.Client(reader)
	got := readRangeEq(t, c, "/f", 10, int64(len(data))-20, data)
	if c.m.readRetries.Value() == 0 {
		t.Fatal("the corrupt replica was never tried")
	}
	if sb, i := storedAt(t, d, "/f", 10); &got[0] != &sb.data[i] {
		t.Fatal("a range served from verified siblings was copied")
	}
}

// The balancer moves a replica by storing the same block on its new
// node, so ranged reads from anywhere stay right after it.
func TestReadRangeAfterBalance(t *testing.T) {
	d := viewDFS(t, 1)
	w := d.Client(2) // replication 1: node 2 holds everything
	var want [][]byte
	for i := 0; i < 6; i++ {
		data := pattern(2*replicaTestBlock + 100*i)
		if err := vfs.WriteFile(w, fmt.Sprintf("/f%d", i), data); err != nil {
			t.Fatal(err)
		}
		want = append(want, data)
	}
	if moves, err := d.Balance(0.10); err != nil || moves == 0 {
		t.Fatalf("balance: %d moves, err=%v", moves, err)
	}
	for from := cluster.NodeID(0); from < 4; from++ {
		c := d.Client(from)
		for i, data := range want {
			p := fmt.Sprintf("/f%d", i)
			got := readRangeEq(t, c, p, 0, int64(len(data)), data)
			readRangeEq(t, c, p, replicaTestBlock-3, 6, data)
			if sb, _ := storedAt(t, d, p, 0); &got[0] != &sb.data[0] {
				t.Fatalf("%s from node %d: a moved block's range was copied", p, from)
			}
		}
	}
}

func TestReadRangeRejectsNegativeRanges(t *testing.T) {
	d := viewDFS(t, 3)
	c := d.Client(0)
	if err := vfs.WriteFile(c, "/f", pattern(1000)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ off, length int64 }{{-1, 10}, {5, -1}, {-3, -3}} {
		if got, err := c.ReadRange("/f", r.off, r.length); err == nil {
			t.Errorf("ReadRange(%d, %d) = %d bytes, nil; want an error", r.off, r.length, len(got))
		}
	}
	if c.Meter.BytesRead() != 0 {
		t.Fatalf("a rejected range read %d bytes", c.Meter.BytesRead())
	}
}

// The split reader's four-block range costs its audit entry and no copy
// of the blocks: well under 1 KiB per read, against 256 KiB copied.
func TestReadRangeAllocations(t *testing.T) {
	d := viewDFS(t, 3)
	data := pattern(4 * replicaTestBlock)
	if err := vfs.WriteFile(d.Client(GatewayNode), "/f", data); err != nil {
		t.Fatal(err)
	}
	d.NN.audit = nil // keep the benchmark's reads from growing the audit log
	c := d.Client(0)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.ReadRange("/f", 1, int64(len(data))-2); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("%d B/op, %d allocs/op", res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got >= 1<<10 {
		t.Fatalf("a four-block ReadRange allocates %d B/op, want < 1 KiB", got)
	}
}

// A block is checksummed once: the verdict is cached on the stored block
// and holds for every replica. A corrupt replica — a private copy whose
// bytes fail the check — still fails, and is counted, on every read.
func TestChecksumVerifiedOncePerBlock(t *testing.T) {
	d := viewDFS(t, 3)
	data := pattern(2 * replicaTestBlock)
	if err := vfs.WriteFile(d.Client(GatewayNode), "/f", data); err != nil {
		t.Fatal(err)
	}
	locs, _ := d.NN.BlockLocations("/f")
	reps := replicasOf(d, locs[0].Block)
	if _, _, err := reps[0].dn.readBlock(reps[0].id); err != nil {
		t.Fatal(err)
	}
	// Stored bytes never change; if they did, only the first read of a
	// block would see it. Flip one behind the DataNodes' backs to show
	// that no later read of any replica checksums again.
	reps[0].sb.data[0] ^= 0xFF
	for _, r := range reps {
		if _, _, err := r.dn.readBlock(r.id); err != nil {
			t.Fatalf("replica on %s was checksummed again: %v", r.dn.Hostname(), err)
		}
	}
	reps[0].sb.data[0] ^= 0xFF

	bad := reps[1]
	if !bad.dn.CorruptBlock(bad.id) {
		t.Fatal("corrupt failed")
	}
	failures := d.Obs.CounterValue(MetricDNChecksumFailures)
	for i := 1; i <= 3; i++ {
		if _, _, err := bad.dn.readBlock(bad.id); err == nil {
			t.Fatalf("read %d of the corrupt replica verified", i)
		}
		if got := d.Obs.CounterValue(MetricDNChecksumFailures) - failures; got != int64(i) {
			t.Fatalf("after %d reads of the corrupt replica, %d checksum failures counted", i, got)
		}
	}
	for _, r := range []replica{reps[0], reps[2]} {
		sb, _, err := r.dn.readBlock(r.id)
		if err != nil || !bytes.Equal(sb.data, data[:replicaTestBlock]) {
			t.Fatalf("sibling on %s: err=%v", r.dn.Hostname(), err)
		}
	}
}

// Replicas of one block share its verdict, so first reads may race to
// make it: every reader gets the same answer (run under -race).
func TestChecksumVerdictIsSafeToShare(t *testing.T) {
	good := pattern(4 << 10)
	bad := bytes.Clone(good)
	bad[7] ^= 0xFF
	for _, sb := range []*storedBlock{
		{data: good, sum: checksum(good), buf: good},
		{data: bad, sum: checksum(good), buf: bad},
	} {
		want := bytes.Equal(sb.data, good)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if sb.verified() != want {
					t.Errorf("verified() = %t, want %t", !want, want)
				}
			}()
		}
		wg.Wait()
	}
}
