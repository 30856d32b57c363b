package hdfs

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/vfs"
)

// NameNode metadata persistence, the part of HDFS the paper's Figure 2
// glosses as "block metadata lives in memory": the namespace itself is
// durable, stored as a checkpoint image (fsimage) plus an append-only
// edit log, merged periodically by the Secondary NameNode. Both files are
// JSONL edit records, and the fsimage is a compacted edit log: the
// namespace written as a mkdir per directory and a close per file. Block
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

// journal appends an edit record to the edit log (no-op without a
// metadata filesystem). A failed append is surfaced to the caller: an
// edit acked to the client but not durable would silently vanish on the
// next NameNode restart.
func (nn *NameNode) journal(rec editRecord) error {
	if nn.metaFS == nil {
		return nil
	}
	line, err := history.Marshal([]editRecord{rec})
	if err != nil {
		return err
	}
	if err := vfs.AppendFile(nn.metaFS, editsPath, line); err != nil {
		return err
	}
	nn.m.editLogRecords.Inc()
	return nil
}

// closeRecord is the edit that records a finished file with its blocks.
func (nn *NameNode) closeRecord(path string, f *inode) editRecord {
	lens := make([]int64, len(f.blocks))
	for i, bid := range f.blocks {
		if bm, ok := nn.blocks[bid]; ok {
			lens[i] = bm.len
		}
	}
	return editRecord{Op: "close", Path: path, Repl: f.repl, Blocks: f.blocks, Lens: lens}
}

// Checkpoint is the Secondary NameNode's job: serialise the current
// namespace as a new fsimage and truncate the edit log. Returns the
// number of namespace entries written.
func (nn *NameNode) Checkpoint() (int, error) {
	if nn.metaFS == nil {
		return 0, fmt.Errorf("hdfs: no metadata filesystem configured")
	}
	var image []editRecord
	var walk func(n *inode, prefix string)
	walk = func(n *inode, prefix string) {
		for _, c := range n.list() {
			p := prefix + "/" + c.name
			if c.dir {
				image = append(image, editRecord{Op: "mkdir", Path: p})
				walk(c, p)
			} else {
				image = append(image, nn.closeRecord(p, c))
			}
		}
	}
	walk(nn.ns.root, "")
	data, err := history.Marshal(image)
	if err != nil {
		return 0, err
	}
	if vfs.Exists(nn.metaFS, fsimagePath) {
		if err := nn.metaFS.Remove(fsimagePath, false); err != nil {
			return 0, err
		}
	}
	if err := vfs.WriteFile(nn.metaFS, fsimagePath, data); err != nil {
		return 0, err
	}
	if vfs.Exists(nn.metaFS, editsPath) {
		if err := nn.metaFS.Remove(editsPath, false); err != nil {
			return 0, err
		}
	}
	nn.m.checkpoints.Inc()
	return len(image), nil
}

// loadNamespaceFromDisk rebuilds the namespace tree and block metadata
// by replaying the fsimage and then the edit log. Block replica locations
// are NOT restored — they arrive via block reports.
func (nn *NameNode) loadNamespaceFromDisk() error {
	if nn.metaFS == nil {
		return fmt.Errorf("hdfs: no metadata filesystem configured")
	}
	nn.ns = newNamespace()
	nn.blocks = map[BlockID]*blockMeta{}
	nn.nextBlock = 0
	for _, path := range []string{fsimagePath, editsPath} {
		if !vfs.Exists(nn.metaFS, path) {
			continue
		}
		data, err := vfs.ReadFile(nn.metaFS, path)
		if err != nil {
			return err
		}
		recs, err := history.Parse[editRecord](data)
		if err != nil {
			return fmt.Errorf("hdfs: corrupt %s: %w", path, err)
		}
		for _, rec := range recs {
			if err := nn.replay(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// replay applies one edit record to the namespace.
func (nn *NameNode) replay(rec editRecord) error {
	switch rec.Op {
	case "mkdir":
		return nn.ns.mkdirAll(rec.Path)
	case "close":
		dir, _ := vfs.Split(rec.Path)
		if err := nn.ns.mkdirAll(dir); err != nil {
			return err
		}
		// A later close of the same path (an append) replaces the file.
		if nn.ns.lookup(rec.Path) != nil {
			if _, err := nn.ns.remove(rec.Path, true); err != nil {
				return err
			}
		}
		f, err := nn.ns.createFile(rec.Path, rec.Repl)
		if err != nil {
			return err
		}
		for i, bid := range rec.Blocks {
			bm := &blockMeta{id: bid, expected: rec.Repl,
				replicas: map[cluster.NodeID]bool{}, corrupt: map[cluster.NodeID]bool{}}
			if i < len(rec.Lens) {
				bm.len = rec.Lens[i]
			}
			nn.blocks[bid] = bm
			f.blocks = append(f.blocks, bid)
			f.size += bm.len
			nn.nextBlock = max(nn.nextBlock, bid)
		}
	case "delete":
		// Already gone is fine: edits are idempotent-ish.
		if freed, err := nn.ns.remove(rec.Path, true); err == nil {
			for _, bid := range freed {
				delete(nn.blocks, bid)
			}
		}
	case "rename":
		_ = nn.ns.rename(rec.Path, rec.Path2)
	case "setrep":
		if f := nn.ns.lookup(rec.Path); f != nil && !f.dir {
			nn.setRepl(f, rec.Repl)
		}
	}
	return nil
}

// RestartFromDisk models a NameNode cold start: the in-memory namespace
// is discarded and rebuilt from fsimage + edit log, then the NameNode
// restarts as Restart does.
func (nn *NameNode) RestartFromDisk() error {
	if err := nn.loadNamespaceFromDisk(); err != nil {
		return err
	}
	nn.Restart()
	return nil
}
