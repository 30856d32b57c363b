package hdfs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"

	"repro/internal/vfs"
)

// NameNode metadata persistence, the part of HDFS the paper's Figure 2
// glosses as "block metadata lives in memory": the namespace itself is
// durable, stored as a checkpoint image (fsimage) plus an append-only
// edit log, merged periodically by the Secondary NameNode. Block
// *locations* are deliberately not persisted — they are rebuilt from
// DataNode block reports on every startup, which is exactly why the
// paper's cluster restarts took fifteen minutes.

const (
	fsimagePath = "/dfs/name/current/fsimage"
	editsPath   = "/dfs/name/current/edits"
)

// editRecord is one logged namespace mutation.
type editRecord struct {
	Op     string    `json:"op"` // mkdir, close, delete, rename, setrep
	Path   string    `json:"path"`
	Path2  string    `json:"path2,omitempty"`
	Repl   int       `json:"repl,omitempty"`
	Blocks []BlockID `json:"blocks,omitempty"`
	Lens   []int64   `json:"lens,omitempty"`
}

// imageEntry is one namespace entry in the checkpoint image.
type imageEntry struct {
	Path   string    `json:"path"`
	Dir    bool      `json:"dir"`
	Repl   int       `json:"repl,omitempty"`
	Blocks []BlockID `json:"blocks,omitempty"`
	Lens   []int64   `json:"lens,omitempty"`
}

// journal appends an edit record to the edit log (no-op without a
// metadata filesystem). A failed append is surfaced to the caller: an
// edit acked to the client but not durable would silently vanish on the
// next NameNode restart.
func (nn *NameNode) journal(rec editRecord) error {
	if nn.metaFS == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := vfs.AppendFile(nn.metaFS, editsPath, append(line, '\n')); err != nil {
		return err
	}
	nn.m.editLogRecords.Inc()
	return nil
}

// journalFileComplete records a finished file with its blocks.
func (nn *NameNode) journalFileComplete(path string, f *inode) error {
	lens := make([]int64, len(f.blocks))
	for i, bid := range f.blocks {
		if bm, ok := nn.blocks[bid]; ok {
			lens[i] = bm.len
		}
	}
	return nn.journal(editRecord{Op: "close", Path: path, Repl: f.repl, Blocks: f.blocks, Lens: lens})
}

// Checkpoint is the Secondary NameNode's job: serialise the current
// namespace as a new fsimage and truncate the edit log. Returns the
// number of namespace entries written.
func (nn *NameNode) Checkpoint() (int, error) {
	if nn.metaFS == nil {
		return 0, fmt.Errorf("hdfs: no metadata filesystem configured")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	entries := 0
	var walk func(n *inode, prefix string) error
	walk = func(n *inode, prefix string) error {
		for _, c := range n.list() {
			p := prefix + "/" + c.name
			e := imageEntry{Path: p, Dir: c.dir, Repl: c.repl}
			if !c.dir {
				e.Blocks = c.blocks
				e.Lens = make([]int64, len(c.blocks))
				for i, bid := range c.blocks {
					if bm, ok := nn.blocks[bid]; ok {
						e.Lens[i] = bm.len
					}
				}
			}
			if err := enc.Encode(e); err != nil {
				return err
			}
			entries++
			if c.dir {
				if err := walk(c, p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(nn.ns.root, ""); err != nil {
		return 0, err
	}
	if vfs.Exists(nn.metaFS, fsimagePath) {
		if err := nn.metaFS.Remove(fsimagePath, false); err != nil {
			return 0, err
		}
	}
	if err := vfs.WriteFile(nn.metaFS, fsimagePath, buf.Bytes()); err != nil {
		return 0, err
	}
	if vfs.Exists(nn.metaFS, editsPath) {
		if err := nn.metaFS.Remove(editsPath, false); err != nil {
			return 0, err
		}
	}
	nn.m.checkpoints.Inc()
	return entries, nil
}

// loadNamespaceFromDisk rebuilds the namespace tree and block metadata
// from fsimage + edit log. Block replica locations are NOT restored —
// they arrive via block reports, re-entering safe mode until then.
func (nn *NameNode) loadNamespaceFromDisk() error {
	if nn.metaFS == nil {
		return fmt.Errorf("hdfs: no metadata filesystem configured")
	}
	nn.ns = newNamespace()
	nn.blocks = map[BlockID]*blockMeta{}
	nn.nextBlock = 0

	addFile := func(path string, repl int, blocks []BlockID, lens []int64) error {
		dir, _ := vfs.Split(path)
		if err := nn.ns.mkdirAll(dir); err != nil {
			return err
		}
		// Replace any previous version of the file (edit replay order).
		if nn.ns.lookup(path) != nil {
			if _, err := nn.ns.remove(path, true); err != nil {
				return err
			}
		}
		f, err := nn.ns.createFile(path, repl)
		if err != nil {
			return err
		}
		for i, bid := range blocks {
			bm := &blockMeta{id: bid, expected: repl,
				replicas: map[cluster.NodeID]bool{}, corrupt: map[cluster.NodeID]bool{}}
			if i < len(lens) {
				bm.len = lens[i]
			}
			nn.blocks[bid] = bm
			f.blocks = append(f.blocks, bid)
			f.size += bm.len
			if bid > nn.nextBlock {
				nn.nextBlock = bid
			}
		}
		return nil
	}

	if vfs.Exists(nn.metaFS, fsimagePath) {
		data, err := vfs.ReadFile(nn.metaFS, fsimagePath)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var e imageEntry
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				return fmt.Errorf("hdfs: corrupt fsimage: %w", err)
			}
			if e.Dir {
				if err := nn.ns.mkdirAll(e.Path); err != nil {
					return err
				}
			} else if err := addFile(e.Path, e.Repl, e.Blocks, e.Lens); err != nil {
				return err
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	if vfs.Exists(nn.metaFS, editsPath) {
		data, err := vfs.ReadFile(nn.metaFS, editsPath)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var rec editRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return fmt.Errorf("hdfs: corrupt edit log: %w", err)
			}
			switch rec.Op {
			case "mkdir":
				if err := nn.ns.mkdirAll(rec.Path); err != nil {
					return err
				}
			case "close":
				if err := addFile(rec.Path, rec.Repl, rec.Blocks, rec.Lens); err != nil {
					return err
				}
			case "delete":
				freed, err := nn.ns.remove(rec.Path, true)
				if err != nil {
					continue // already gone; edits are idempotent-ish
				}
				for _, bid := range freed {
					delete(nn.blocks, bid)
				}
			case "rename":
				_ = nn.ns.rename(rec.Path, rec.Path2)
			case "setrep":
				if f := nn.ns.lookup(rec.Path); f != nil && !f.dir {
					f.repl = rec.Repl
					for _, bid := range f.blocks {
						if bm, ok := nn.blocks[bid]; ok {
							bm.expected = rec.Repl
						}
					}
				}
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	return nil
}

// RestartFromDisk models a NameNode cold start: the in-memory namespace
// is discarded and rebuilt from fsimage + edit log; replica locations are
// forgotten and the cluster re-enters safe mode until block reports
// arrive.
func (nn *NameNode) RestartFromDisk() error {
	if err := nn.loadNamespaceFromDisk(); err != nil {
		return err
	}
	nn.safeMode = true
	nn.safeModeEnteredAt = nn.eng.Now()
	nn.m.safeMode.Set(1)
	nn.dns = map[cluster.NodeID]*dnInfo{}
	nn.pendingRepl = map[BlockID]bool{}
	return nil
}
