package hdfs

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// FuzzReadRange holds Client.ReadRange to a model — the written bytes as
// one slice — over files written in one WriteFile or in several Appends,
// with an optional corrupt replica. For every range: the result is the
// model's slice (a negative offset or length is an error); the meter
// counts the touched blocks in full, once each; and appending to the
// result changes no later read.
//
// Inputs: the file's bytes (at most 4 KiB); blockSize (1 + blockSize%512
// bytes); appends (0: one WriteFile, n: n+1 Appends cut at even offsets);
// corrupt (< 0: none, else the replica on the first listed node of block
// corrupt % blocks); ranges (each 4 bytes: two little-endian int16 giving
// off and length).
func FuzzReadRange(f *testing.F) {
	text := []byte("the quick brown fox jumps over the lazy dog\n")
	f.Add(bytes.Repeat(text, 20), uint16(100), uint8(0), int8(-1), []byte{0, 0, 0x70, 3, 90, 0, 30, 1})
	f.Add(bytes.Repeat(text, 20), uint16(64), uint8(3), int8(2), []byte{10, 0, 0xff, 0x7f, 0xc0, 0, 0x40, 1})
	f.Add(text, uint16(7), uint8(5), int8(0), []byte{0xff, 0xff, 4, 0, 3, 0, 0xfe, 0xff, 44, 0, 1, 0})
	f.Add([]byte{}, uint16(0), uint8(1), int8(-1), []byte{0, 0, 1, 0})
	f.Add([]byte("00000000"), uint16(7), uint8(5), int8(0), []byte{3, 0, 0, 0}) // empty range inside a block
	f.Fuzz(func(t *testing.T, data []byte, blockSize uint16, appends uint8, corrupt int8, ranges []byte) {
		if len(data) > 4<<10 {
			data = data[:4<<10]
		}
		d, err := NewMiniDFS(sim.NewEngine(), cluster.NewTopology(cluster.PaperNodeConfig(3, 1)), Options{
			Config: Config{BlockSize: 1 + int64(blockSize%512), Replication: 2, ReplMonitorInterval: time.Hour},
			Seed:   7,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := d.Client(GatewayNode)
		if appends == 0 {
			err = vfs.WriteFile(w, "/f", data)
		} else {
			pieces := int(appends%8) + 1
			for i := 0; i < pieces && err == nil; i++ {
				err = vfs.AppendFile(w, "/f", data[len(data)*i/pieces:len(data)*(i+1)/pieces])
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		locs, err := d.NN.BlockLocations("/f")
		if err != nil {
			t.Fatal(err)
		}
		if corrupt >= 0 && len(locs) > 0 {
			loc := locs[int(corrupt)%len(locs)]
			d.datanodes[loc.Nodes[0]].CorruptBlock(loc.Block)
		}

		c := d.Client(0)
		size := int64(len(data))
		for ; len(ranges) >= 4; ranges = ranges[4:] {
			off := int64(int16(binary.LittleEndian.Uint16(ranges)))
			length := int64(int16(binary.LittleEndian.Uint16(ranges[2:])))
			c.Meter.Reset()
			got, err := c.ReadRange("/f", off, length)
			if off < 0 || length < 0 {
				if err == nil || c.Meter.BytesRead() != 0 {
					t.Fatalf("ReadRange(%d, %d): err=%v, %d bytes metered; want an error and no read", off, length, err, c.Meter.BytesRead())
				}
				continue
			}
			if err != nil {
				t.Fatalf("ReadRange(%d, %d): %v", off, length, err)
			}
			lo, hi := min(off, size), min(off+length, size)
			if !bytes.Equal(got, data[lo:hi]) {
				t.Fatalf("ReadRange(%d, %d) = %q, want %q", off, length, got, data[lo:hi])
			}
			var touched int64
			for _, loc := range locs {
				if lo < hi && loc.Offset < hi && loc.Offset+loc.Length > lo {
					touched += loc.Length
				}
			}
			if c.Meter.BytesRead() != touched {
				t.Fatalf("ReadRange(%d, %d) metered %d bytes, want the touched blocks' %d", off, length, c.Meter.BytesRead(), touched)
			}
			grown := append(got, 0xEE)
			grown[len(grown)-1] ^= 0xFF
			if again, err := c.ReadRange("/f", lo, hi+1-lo); err != nil || !bytes.Equal(again, data[lo:min(hi+1, size)]) {
				t.Fatalf("after appending to ReadRange(%d, %d): reread err=%v, %q", off, length, err, again)
			}
		}
		whole, err := c.ReadFile("/f")
		if err != nil || !bytes.Equal(whole, data) {
			t.Fatalf("whole file after the ranged reads: err=%v", err)
		}
	})
}
