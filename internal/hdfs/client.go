package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// GatewayNode is the client location for programs running off-cluster
// (e.g. a login node staging data): every transfer crosses the core.
const GatewayNode cluster.NodeID = -1

// Meter accumulates the modelled cost and locality of a client's I/O.
// The MapReduce counters for HDFS bytes read local/rack/remote come
// straight from here.
type Meter struct {
	BytesReadLocal  int64
	BytesReadRack   int64
	BytesReadRemote int64
	BytesWritten    int64
	ReadTime        time.Duration
	WriteTime       time.Duration
}

// BytesRead returns total bytes read at any distance.
func (m Meter) BytesRead() int64 {
	return m.BytesReadLocal + m.BytesReadRack + m.BytesReadRemote
}

// Reset zeroes the meter.
func (m *Meter) Reset() { *m = Meter{} }

// Client is an HDFS client bound to a location in the topology. It
// implements vfs.FileSystem, which is what lets a MapReduce jar written
// against the standalone runner rerun on HDFS unchanged.
type Client struct {
	nn   *NameNode
	eng  *sim.Engine
	topo *cluster.Topology
	cost cluster.CostModel
	net  *cluster.Network
	from cluster.NodeID

	// m is the shared client metric bundle feeding the cluster-wide
	// observability registry (nil for detached clients).
	m *clientMetrics

	// User is the principal recorded in the NameNode audit log for this
	// client's operations; empty defaults to DefaultUser.
	User string

	// Meter records modelled I/O cost and locality for this client.
	Meter Meter
	// Trace is where the client's HDFS spans go. A task attempt sets its
	// own context, which parents write pipelines and block reads under the
	// attempt — how a reduce attempt's critical path reaches into the
	// DataNode layer. The default is the registry's untraced context:
	// write pipelines record flat, block reads not at all.
	Trace obs.Ctx
	// AutoAdvance, when set, advances the sim clock by each operation's
	// modelled cost — right for interactive flows (shell sessions, data
	// staging); the MapReduce runtime leaves it off and schedules task
	// durations itself.
	AutoAdvance bool
}

var _ vfs.FileSystem = (*Client)(nil)

// DefaultUser is the audit principal of clients that set no User — the
// single student account every lab runs as.
const DefaultUser = "student"

// auditEv appends a client-facing entry to the NameNode audit log:
// principal, operation, path(s), and whether the NameNode said yes.
func (c *Client) auditEv(typ string, attrs map[string]string, err error) {
	user := c.User
	if user == "" {
		user = DefaultUser
	}
	attrs["user"] = user
	if err != nil {
		attrs["result"] = "error"
	} else {
		attrs["result"] = "ok"
	}
	c.nn.audit.Append(time.Duration(c.eng.Now()), typ, attrs)
}

// Location returns the node the client runs on (GatewayNode if off-cluster).
func (c *Client) Location() cluster.NodeID { return c.from }

// NameNode exposes the cluster's NameNode (for fsck, locations, admin).
func (c *Client) NameNode() *NameNode { return c.nn }

func (c *Client) charge(read bool, d time.Duration) {
	if read {
		c.Meter.ReadTime += d
	} else {
		c.Meter.WriteTime += d
	}
	if c.AutoAdvance {
		c.eng.Advance(d)
	}
}

func (c *Client) distanceTo(id cluster.NodeID) int {
	if c.from < 0 {
		return 4
	}
	return c.topo.Distance(c.from, id)
}

// reachable reports whether the client can currently move data to/from the
// node (always true when no network overlay is installed).
func (c *Client) reachable(id cluster.NodeID) bool {
	return c.net.Reachable(c.from, id)
}

// --- writes ---

// Create opens a new file for writing with the default replication.
func (c *Client) Create(path string) (io.WriteCloser, error) {
	return c.CreateRepl(path, 0)
}

// CreateRepl opens a new file with an explicit replication factor
// (0 = cluster default).
func (c *Client) CreateRepl(path string, repl int) (io.WriteCloser, error) {
	f, err := c.nn.createFileEntry(path, repl)
	c.auditEv(history.EvAuditCreate, map[string]string{"src": vfs.Clean(path)}, err)
	if err != nil {
		return nil, err
	}
	return &hdfsWriter{c: c, f: f, path: vfs.Clean(path)}, nil
}

// Append opens a file for writing at its end (hadoop fs -appendToFile),
// creating it when absent. The appended bytes travel the ordinary
// replicated pipeline as new block(s) of the existing inode: blocks stay
// immutable once written, so replicas, checksums and block reports need
// no generation stamps. It is audited as a create with mode=append.
func (c *Client) Append(path string) (io.WriteCloser, error) {
	f, err := c.nn.appendFileEntry(path)
	c.auditEv(history.EvAuditCreate, map[string]string{"src": vfs.Clean(path), "mode": "append"}, err)
	if err != nil {
		return nil, err
	}
	return &hdfsWriter{c: c, f: f, path: vfs.Clean(path), appending: true}, nil
}

// hdfsWriter buffers file contents and writes the block pipeline on Close.
// (Real HDFS streams per-block; buffering whole files is fine at teaching
// scale and keeps the pipeline logic in one place.) The buffer is the
// only copy: Close hands its block-sized pieces to the DataNodes as they
// are, and nothing writes to it after Close.
type hdfsWriter struct {
	c         *Client
	f         *inode
	path      string
	buf       bytes.Buffer
	appending bool
	closed    bool
}

func (w *hdfsWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	return w.buf.Write(p)
}

func (w *hdfsWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	data := w.buf.Bytes()
	bs := int(w.c.nn.cfg.BlockSize)
	had := len(w.f.blocks)
	for off := 0; off < len(data); off += bs {
		end := min(off+bs, len(data))
		if err := w.c.writeBlock(w.f, w.path, data, off, end); err != nil {
			// Clean up so retries see a consistent tree: a failed create
			// leaves no file, a failed append the file it found.
			if w.appending {
				w.c.nn.dropBlocksFrom(w.f, had)
			} else {
				_ = w.c.nn.Delete(w.path, false)
			}
			return &vfs.PathError{Op: "write", Path: w.path, Err: err}
		}
	}
	return w.c.nn.journal(w.c.nn.closeRecord(w.path, w.f))
}

// writeBlock runs one replicated pipeline write: client → DN1 → DN2 → DN3.
// The modelled cost is the pipeline bottleneck (slowest hop or disk),
// because hops stream concurrently. The checksum is made here, once, and
// every target stores the same block: buf[off:end], clipped so that no
// block's slice can reach into its neighbour's bytes.
func (c *Client) writeBlock(f *inode, path string, buf []byte, off, end int) error {
	id, targets, err := c.nn.allocateBlock(f, path, c.from)
	if err != nil {
		return err
	}
	data := buf[off:end:end]
	sb := &storedBlock{data: data, sum: checksum(data), buf: buf, off: off}
	var written []cluster.NodeID
	var bottleneck time.Duration
	var bottleneckNode string
	prev := c.from
	for _, t := range targets {
		dn := c.nn.datanodes[t]
		if dn == nil {
			continue
		}
		// A partitioned target is as good as a dead one: the pipeline
		// shrinks past it, exactly as it does past a failed DataNode.
		if !c.net.Reachable(prev, t) {
			continue
		}
		diskCost, err := dn.writeBlock(id, sb)
		if err != nil {
			// Hadoop shrinks the pipeline past a failed node.
			continue
		}
		var hop time.Duration
		if prev < 0 {
			hop = c.cost.Transfer(4, int64(len(data)))
		} else {
			hop = c.cost.Transfer(c.topo.Distance(prev, t), int64(len(data)))
		}
		if hop > bottleneck {
			bottleneck = hop
			bottleneckNode = dn.Hostname()
		}
		if diskCost > bottleneck {
			bottleneck = diskCost
			bottleneckNode = dn.Hostname()
		}
		written = append(written, t)
		prev = t
	}
	if len(written) == 0 {
		c.nn.abandonBlock(id)
		return fmt.Errorf("hdfs: pipeline write of %v failed on all %d targets", id, len(targets))
	}
	c.nn.commitBlock(f, id, int64(len(data)), written)
	c.Meter.BytesWritten += int64(len(data))
	c.m.pipelineWrites.Inc()
	c.m.bytesWritten.Add(int64(len(data)))
	if len(written) < len(targets) {
		c.m.pipelineShrunk.Inc()
	}
	start := c.eng.Now()
	c.Trace.ChildSpan(SpanWritePipeline, time.Duration(start), time.Duration(start)+bottleneck, map[string]string{
		"block":    fmt.Sprint(id),
		"bytes":    fmt.Sprint(len(data)),
		"replicas": fmt.Sprint(len(written)),
		"node":     bottleneckNode,
	})
	c.charge(false, bottleneck)
	return nil
}

// --- reads ---

// readBlock fetches one block choosing the closest reachable usable
// replica, retrying other replicas when a checksum fails (and reporting
// the corrupt copy to the NameNode, as DFSClient does). The block is the
// stored one, shared by every replica: callers copy out of its bytes or
// hand out read-only views of them, and never write to them.
func (c *Client) readBlock(bm *blockMeta) (*storedBlock, error) {
	id := bm.id
	// Order candidate replicas by distance, then node ID for determinism.
	cands := slices.DeleteFunc(c.nn.usableReplicas(bm), func(n cluster.NodeID) bool { return !c.reachable(n) })
	slices.SortStableFunc(cands, func(a, b cluster.NodeID) int { return c.distanceTo(a) - c.distanceTo(b) })
	for _, nodeID := range cands {
		dn := c.nn.datanodes[nodeID]
		if dn == nil {
			continue
		}
		sb, diskCost, err := dn.readBlock(id)
		if err != nil {
			var ce *ChecksumError
			if errors.As(err, &ce) {
				c.nn.markCorrupt(id, nodeID)
			}
			c.m.readRetries.Inc()
			continue
		}
		data := sb.data
		dist := c.distanceTo(nodeID)
		total := diskCost + c.cost.Transfer(dist, int64(len(data)))
		switch {
		case dist == 0:
			c.Meter.BytesReadLocal += int64(len(data))
			c.m.readsLocal.Inc()
			c.m.bytesReadLocal.Add(int64(len(data)))
		case dist <= 2:
			c.Meter.BytesReadRack += int64(len(data))
			c.m.readsRack.Inc()
			c.m.bytesReadRack.Add(int64(len(data)))
		default:
			c.Meter.BytesReadRemote += int64(len(data))
			c.m.readsRemote.Inc()
			c.m.bytesReadRemote.Add(int64(len(data)))
		}
		c.m.readBlockTime.Observe(total)
		// Traced clients (task attempts) get a read span under their
		// attempt; untraced bulk readers stay span-free — block reads are
		// far too hot to record unconditionally.
		if c.Trace.Valid() {
			start := time.Duration(c.eng.Now())
			c.Trace.ChildSpan(SpanReadBlock, start, start+total, map[string]string{
				"block": fmt.Sprint(id),
				"bytes": fmt.Sprint(len(data)),
				"node":  dn.Hostname(),
			})
		}
		c.charge(true, total)
		return sb, nil
	}
	return nil, &vfs.PathError{Op: "read", Path: id.String(), Err: vfs.ErrCorrupt}
}

// Open reads a whole file (all blocks, nearest replicas).
func (c *Client) Open(path string) (io.ReadCloser, error) {
	data, err := c.read("open", path, 0, math.MaxInt64, false)
	if err != nil {
		return nil, err
	}
	return vfs.BytesFile(data), nil
}

// ReadFile reads a whole file as Open does — the same audit event, the
// same errors — and returns the one buffer the read fills, which the
// caller owns. vfs.ReadFile uses it, as io/fs.ReadFile uses ReadFileFS.
func (c *Client) ReadFile(path string) ([]byte, error) {
	data, err := c.read("open", path, 0, math.MaxInt64, false)
	if err == nil && data == nil {
		data = []byte{} // an empty file, not a missing one
	}
	return data, err
}

// ReadRange reads [off, off+length) of a file, touching only the blocks
// that overlap the range — what a map task does with its split. Every
// overlapping block is read, verified and metered in full, but when the
// range lies in blocks written by one Create or Append the result is a
// view of the stored bytes, not a copy (Hadoop's zero-copy read): the
// caller must not modify it. Its capacity is its length, so an append
// copies. A negative off or length is an error.
func (c *Client) ReadRange(path string, off, length int64) ([]byte, error) {
	return c.read("read", path, off, length, true)
}

// read is the body of Open, ReadFile and ReadRange; its errors carry op.
// With view set, a range whose pieces are consecutive windows of one
// write buffer comes back as that buffer's [a:b:b]; otherwise (pieces
// from different writes, or view unset) the pieces are copied into one
// buffer the caller owns.
func (c *Client) read(op, path string, off, length int64, view bool) ([]byte, error) {
	if off < 0 || length < 0 {
		return nil, &vfs.PathError{Op: op, Path: path, Err: fmt.Errorf("hdfs: negative range: offset %d, length %d", off, length)}
	}
	f := c.nn.ns.lookup(path)
	if f == nil {
		c.auditEv(history.EvAuditOpen, map[string]string{"src": vfs.Clean(path)}, vfs.ErrNotExist)
		return nil, &vfs.PathError{Op: op, Path: path, Err: vfs.ErrNotExist}
	}
	c.auditEv(history.EvAuditOpen, map[string]string{"src": vfs.Clean(path)}, nil)
	if f.dir {
		return nil, &vfs.PathError{Op: op, Path: path, Err: vfs.ErrIsDir}
	}
	end := f.size
	if length < end-off {
		end = off + length
	}
	if off >= end {
		return nil, nil
	}
	var (
		out      []byte // the copy, once the range is not one window
		win      []byte // else the write buffer the range is a window of,
		wlo, whi int    // as win[wlo:whi]
	)
	blockStart := int64(0)
	for _, bid := range f.blocks {
		bm, ok := c.nn.blocks[bid]
		if !ok {
			return nil, &vfs.PathError{Op: op, Path: path, Err: fmt.Errorf("hdfs: unknown block %v", bid)}
		}
		blockEnd := blockStart + bm.len
		if blockEnd > off && blockStart < end {
			sb, err := c.readBlock(bm)
			if err != nil {
				return nil, &vfs.PathError{Op: op, Path: path, Err: err}
			}
			lo, hi := 0, len(sb.data)
			if off > blockStart {
				lo = int(off - blockStart)
			}
			if end < blockEnd {
				hi = int(end - blockStart)
			}
			switch {
			case view && win == nil && out == nil: // the first piece
				win, wlo, whi = sb.buf, sb.off+lo, sb.off+hi
			case win != nil && &sb.buf[0] == &win[0] && sb.off+lo == whi: // the next window
				whi = sb.off + hi
			default:
				if out == nil {
					out = append(make([]byte, 0, end-off), win[wlo:whi]...)
					win = nil
				}
				out = append(out, sb.data[lo:hi]...)
			}
		}
		blockStart = blockEnd
		if blockStart >= end {
			break
		}
	}
	if win != nil {
		return win[wlo:whi:whi], nil
	}
	return out, nil
}

// --- metadata (delegated to the NameNode) ---

// Stat implements vfs.FileSystem.
func (c *Client) Stat(path string) (vfs.FileInfo, error) { return c.nn.Stat(path) }

// List implements vfs.FileSystem.
func (c *Client) List(path string) ([]vfs.FileInfo, error) { return c.nn.List(path) }

// Mkdir implements vfs.FileSystem.
func (c *Client) Mkdir(path string) error {
	err := c.nn.MkdirAll(path)
	c.auditEv(history.EvAuditMkdir, map[string]string{"src": vfs.Clean(path)}, err)
	return err
}

// Remove implements vfs.FileSystem.
func (c *Client) Remove(path string, recursive bool) error {
	err := c.nn.Delete(path, recursive)
	c.auditEv(history.EvAuditDelete, map[string]string{
		"src":       vfs.Clean(path),
		"recursive": fmt.Sprint(recursive),
	}, err)
	return err
}

// Rename implements vfs.FileSystem.
func (c *Client) Rename(oldPath, newPath string) error {
	err := c.nn.Rename(oldPath, newPath)
	c.auditEv(history.EvAuditRename, map[string]string{
		"src": vfs.Clean(oldPath),
		"dst": vfs.Clean(newPath),
	}, err)
	return err
}

// BlockLocations exposes block layout for split computation.
func (c *Client) BlockLocations(path string) ([]BlockLocation, error) {
	return c.nn.BlockLocations(path)
}

// SetReplication changes a file's replication factor (hadoop fs -setrep).
func (c *Client) SetReplication(path string, repl int) error {
	err := c.nn.SetReplication(path, repl)
	c.auditEv(history.EvAuditSetrep, map[string]string{
		"src":  vfs.Clean(path),
		"repl": fmt.Sprint(repl),
	}, err)
	return err
}

// FsckWith audits the subtree at path (hadoop fsck); opts adds the
// -blocks/-locations detail sections.
func (c *Client) FsckWith(path string, opts FsckOpts) (*FsckReport, error) {
	return c.nn.FsckWith(path, opts)
}
