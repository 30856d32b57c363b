package hdfs

import (
	"errors"
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
//
// The files are numbered as Hadoop numbers them: fsimage_<n> is the
// namespace at the n-th checkpoint and edits_<n> the edits made since
// (edits_0 has no image). A cold start loads the highest n whose edits_<n>
// exists, so creating edits_<n> is a checkpoint's commit point: a failure
// before it leaves generation n-1 whole, and older files go only after it.
const metaDir = "/dfs/name/current"

func metaPath(kind string, n int) string { return fmt.Sprintf("%s/%s_%d", metaDir, kind, n) }

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
	if err := vfs.AppendFile(nn.metaFS, metaPath("edits", nn.metaGen), line); err != nil {
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
// namespace as the next generation's fsimage, start its empty edit log and
// remove the older generation. Returns the number of namespace entries
// written.
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
	// Clear what an earlier checkpoint left when it failed.
	if err := nn.pruneMeta(nn.metaGen); err != nil {
		return 0, err
	}
	n := nn.metaGen + 1
	if err := vfs.WriteFile(nn.metaFS, metaPath("fsimage", n), data); err != nil {
		return 0, err
	}
	if err := vfs.WriteFile(nn.metaFS, metaPath("edits", n), nil); err != nil {
		return 0, err
	}
	nn.metaGen = n
	nn.m.checkpoints.Inc()
	return len(image), nn.pruneMeta(n)
}

// pruneMeta removes every metadata file but generation keep's.
func (nn *NameNode) pruneMeta(keep int) error {
	// A file left unlisted is harmless, or the next Create reports it.
	infos, _ := nn.metaFS.List(metaDir)
	for _, fi := range infos {
		if fi.Path != metaPath("fsimage", keep) && fi.Path != metaPath("edits", keep) {
			if err := nn.metaFS.Remove(fi.Path, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadNamespaceFromDisk rebuilds the namespace tree and block metadata
// by replaying the newest generation's fsimage and then its edit log.
// Block replica locations are NOT restored — they arrive via block reports.
func (nn *NameNode) loadNamespaceFromDisk() error {
	if nn.metaFS == nil {
		return fmt.Errorf("hdfs: no metadata filesystem configured")
	}
	nn.ns = newNamespace()
	nn.blocks = map[BlockID]*blockMeta{}
	nn.nextBlock = 0
	nn.metaGen = 0
	infos, err := nn.metaFS.List(metaDir)
	if err != nil && !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	for _, fi := range infos {
		var n int
		if _, err := fmt.Sscanf(fi.Name(), "edits_%d", &n); err == nil {
			nn.metaGen = max(nn.metaGen, n)
		}
	}
	for _, path := range []string{metaPath("fsimage", nn.metaGen), metaPath("edits", nn.metaGen)} {
		if nn.metaGen == 0 && !vfs.Exists(nn.metaFS, path) {
			continue // generation 0 has no image, and no edits until the first
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
