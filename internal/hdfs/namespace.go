// Package hdfs is a from-scratch, teaching-fidelity implementation of the
// Hadoop Distributed File System architecture the paper's module centres
// on: a NameNode holding the namespace and block map in memory, DataNodes
// holding replicated blocks on their local disks, heartbeats and block
// reports, a replicated write pipeline, locality-aware reads, safe mode,
// a replication monitor, corruption detection via checksums, and fsck.
// All timing runs on the deterministic sim engine; all block payloads are
// real bytes, so MapReduce results computed over HDFS are exact.
package hdfs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vfs"
)

// BlockID names one block in the cluster.
type BlockID uint64

func (b BlockID) String() string { return fmt.Sprintf("blk_%010d", uint64(b)) }

// inode is one entry of the NameNode's in-memory namespace tree — the
// "block metadata lives in memory" box of the paper's Figure 2.
type inode struct {
	name     string
	dir      bool
	children map[string]*inode // dirs only
	blocks   []BlockID         // files only
	size     int64
	repl     int
}

// namespace is the directory tree. It is purely in-memory state owned by
// the NameNode; DataNodes never see paths, only blocks.
type namespace struct {
	root *inode
}

func newNamespace() *namespace {
	return &namespace{root: &inode{name: "", dir: true, children: map[string]*inode{}}}
}

func splitPath(path string) []string {
	p := vfs.Clean(path)
	if p == "/" {
		return nil
	}
	return strings.Split(p[1:], "/")
}

// lookup returns the inode at path, or nil. It walks the path in place:
// vfs.Clean returns an already-clean path as it is, so the lookups on
// the NameNode's hot path (block allocation, opens) allocate nothing.
func (ns *namespace) lookup(path string) *inode {
	p := vfs.Clean(path)
	cur := ns.root
	if p == "/" {
		return cur
	}
	rest := p[1:]
	for {
		i := strings.IndexByte(rest, '/')
		seg := rest
		if i >= 0 {
			seg = rest[:i]
		}
		if !cur.dir {
			return nil
		}
		next, ok := cur.children[seg]
		if !ok {
			return nil
		}
		cur = next
		if i < 0 {
			return cur
		}
		rest = rest[i+1:]
	}
}

// lookupParent returns the parent directory inode and final segment name.
func (ns *namespace) lookupParent(path string) (*inode, string) {
	p := vfs.Clean(path)
	if p == "/" {
		return nil, ""
	}
	i := strings.LastIndexByte(p, '/')
	dir, name := p[:i], p[i+1:]
	cur := ns.root
	if dir != "" {
		cur = ns.lookup(dir)
	}
	if cur == nil || !cur.dir {
		return nil, ""
	}
	return cur, name
}

// mkdirAll creates the directory path and parents.
func (ns *namespace) mkdirAll(path string) error {
	cur := ns.root
	for _, seg := range splitPath(path) {
		next, ok := cur.children[seg]
		if !ok {
			next = &inode{name: seg, dir: true, children: map[string]*inode{}}
			cur.children[seg] = next
		}
		if !next.dir {
			return &vfs.PathError{Op: "mkdir", Path: path, Err: vfs.ErrNotDir}
		}
		cur = next
	}
	return nil
}

// createFile adds an empty file inode; the parent must exist.
func (ns *namespace) createFile(path string, repl int) (*inode, error) {
	parent, name := ns.lookupParent(path)
	if parent == nil || name == "" {
		return nil, &vfs.PathError{Op: "create", Path: path, Err: vfs.ErrNotExist}
	}
	if _, exists := parent.children[name]; exists {
		return nil, &vfs.PathError{Op: "create", Path: path, Err: vfs.ErrExist}
	}
	f := &inode{name: name, repl: repl}
	parent.children[name] = f
	return f, nil
}

// remove deletes path; returns the block IDs freed (recursively).
func (ns *namespace) remove(path string, recursive bool) ([]BlockID, error) {
	parent, name := ns.lookupParent(path)
	if parent == nil || name == "" {
		return nil, &vfs.PathError{Op: "remove", Path: path, Err: vfs.ErrInvalid}
	}
	node, ok := parent.children[name]
	if !ok {
		return nil, &vfs.PathError{Op: "remove", Path: path, Err: vfs.ErrNotExist}
	}
	if node.dir && len(node.children) > 0 && !recursive {
		return nil, &vfs.PathError{Op: "remove", Path: path, Err: vfs.ErrNotEmpty}
	}
	var freed []BlockID
	var collect func(n *inode)
	collect = func(n *inode) {
		freed = append(freed, n.blocks...)
		for _, c := range n.children {
			collect(c)
		}
	}
	collect(node)
	delete(parent.children, name)
	return freed, nil
}

// rename moves a file or directory. A directory cannot move into its own
// subtree: that would detach it into a cycle no path reaches.
func (ns *namespace) rename(oldPath, newPath string) error {
	op, oname := ns.lookupParent(oldPath)
	if op == nil {
		return &vfs.PathError{Op: "rename", Path: oldPath, Err: vfs.ErrNotExist}
	}
	node, ok := op.children[oname]
	if !ok {
		return &vfs.PathError{Op: "rename", Path: oldPath, Err: vfs.ErrNotExist}
	}
	if node.dir && strings.HasPrefix(vfs.Clean(newPath), vfs.Clean(oldPath)+"/") {
		return &vfs.PathError{Op: "rename", Path: newPath, Err: vfs.ErrInvalid}
	}
	np, nname := ns.lookupParent(newPath)
	if np == nil || nname == "" {
		return &vfs.PathError{Op: "rename", Path: newPath, Err: vfs.ErrNotExist}
	}
	if _, exists := np.children[nname]; exists {
		return &vfs.PathError{Op: "rename", Path: newPath, Err: vfs.ErrExist}
	}
	delete(op.children, oname)
	node.name = nname
	np.children[nname] = node
	return nil
}

// list returns the children of a directory, sorted by name.
func (n *inode) list() []*inode {
	out := make([]*inode, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// walkFiles visits every file inode under n in sorted path order.
func (ns *namespace) walkFiles(n *inode, prefix string, fn func(path string, f *inode)) {
	if !n.dir {
		fn(prefix, n)
		return
	}
	for _, c := range n.list() {
		p := prefix + "/" + c.name
		if prefix == "/" {
			p = "/" + c.name
		}
		ns.walkFiles(c, p, fn)
	}
}
