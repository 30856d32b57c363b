// Package vfs defines the filesystem interface shared by every storage
// backend in the stack: the plain in-memory filesystem used by tests, an
// OS-backed filesystem rooted at a directory (the "Linux file system" of
// the paper's serial assignments), and the HDFS client, which implements
// the same interface so that a MapReduce program written against the
// serial runner reruns unchanged on a cluster — the exact point of the
// course's second assignment.
package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Sentinel errors returned by all FileSystem implementations.
var (
	ErrNotExist  = errors.New("vfs: file does not exist")
	ErrExist     = errors.New("vfs: file already exists")
	ErrIsDir     = errors.New("vfs: is a directory")
	ErrNotDir    = errors.New("vfs: not a directory")
	ErrNotEmpty  = errors.New("vfs: directory not empty")
	ErrInvalid   = errors.New("vfs: invalid path")
	ErrReadOnly  = errors.New("vfs: read-only filesystem")
	ErrCorrupt   = errors.New("vfs: data corrupt")
	ErrUnhealthy = errors.New("vfs: filesystem unhealthy")
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Path        string
	Size        int64
	IsDir       bool
	Replication int   // 0 for non-replicated filesystems
	BlockSize   int64 // 0 for non-block filesystems
	ModTime     time.Duration
}

// Name returns the final path element.
func (fi FileInfo) Name() string {
	_, name := Split(fi.Path)
	return name
}

// FileSystem is the storage contract. Paths are slash-separated and
// absolute ("/data/input.txt"). Implementations must be safe for
// sequential use; concurrency guarantees are implementation-specific.
type FileSystem interface {
	// Create opens a new file for writing. It fails if the file exists or
	// the parent directory is missing.
	Create(path string) (io.WriteCloser, error)
	// Append opens a file for writing at its end, creating it when absent;
	// the parent directory must exist. The appended bytes become visible
	// to Open, Stat and List when Close returns — the commit point Create
	// has — and a reader opened earlier keeps the length it opened with.
	Append(path string) (io.WriteCloser, error)
	// Open opens an existing file for reading.
	Open(path string) (io.ReadCloser, error)
	// Stat describes a file or directory.
	Stat(path string) (FileInfo, error)
	// List returns the direct children of a directory, sorted by path.
	List(path string) ([]FileInfo, error)
	// Mkdir creates a directory and any missing parents.
	Mkdir(path string) error
	// Remove deletes a file, or a directory (recursively when recursive).
	Remove(path string, recursive bool) error
	// Rename moves a file or directory to a new path.
	Rename(oldPath, newPath string) error
}

// Clean normalises a path to absolute slash form with no trailing slash
// (except root itself) and no empty or dot segments. A path already in
// that form — every path a filesystem hands back — is returned as it is,
// without allocating.
func Clean(path string) string {
	if isClean(path) {
		return path
	}
	return cleanSlow(path)
}

// cleanSlow normalises any path, segment by segment.
func cleanSlow(path string) string {
	segs := strings.Split(path, "/")
	out := make([]string, 0, len(segs))
	for _, s := range segs {
		switch s {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, s)
		}
	}
	return "/" + strings.Join(out, "/")
}

// isClean reports whether Clean would return path unchanged: "/", or a
// leading slash followed by slash-separated segments none of which is
// empty, "." or "..".
func isClean(path string) bool {
	if path == "" || path[0] != '/' {
		return false
	}
	if path == "/" {
		return true
	}
	start := 1
	for i := 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		if seg := path[start:i]; seg == "" || seg == "." || seg == ".." {
			return false
		}
		start = i + 1
	}
	return true
}

// Join joins path elements with slashes and cleans the result.
func Join(elem ...string) string {
	return Clean(strings.Join(elem, "/"))
}

// Split returns the parent directory and the base name of a cleaned path.
// Split("/") returns ("/", "").
func Split(path string) (dir, name string) {
	p := Clean(path)
	if p == "/" {
		return "/", ""
	}
	i := strings.LastIndexByte(p, '/')
	dir = p[:i]
	if dir == "" {
		dir = "/"
	}
	return dir, p[i+1:]
}

// Valid reports whether a path is usable (non-empty after cleaning, no NUL).
func Valid(path string) bool {
	return !strings.ContainsRune(path, 0) && Clean(path) != ""
}

// ReadFile reads the whole file at path. A filesystem with its own
// ReadFile method (the HDFS client) hands over the buffer its read
// filled, as an io/fs.ReadFileFS does. The method is not part of
// FileSystem, so a wrapper that embeds one never gains a promoted
// ReadFile that goes around its own Open.
func ReadFile(fs FileSystem, path string) ([]byte, error) {
	if rf, ok := fs.(interface {
		ReadFile(path string) ([]byte, error)
	}); ok {
		return rf.ReadFile(path)
	}
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	// A handle that knows how much is left (BytesFile) gets one exact-size
	// buffer; io.ReadAll would grow its way there through ~5x the bytes.
	if l, ok := r.(interface{ Len() int }); ok {
		data := make([]byte, l.Len())
		_, err := io.ReadFull(r, data)
		return data, err
	}
	return io.ReadAll(r)
}

// ReadView reads the whole file at path for a caller that only reads the
// bytes. A filesystem with a ReadRange method (the HDFS client) may hand
// back a view of its stored bytes, which the caller must not modify;
// others fall back to ReadFile.
func ReadView(fs FileSystem, path string) ([]byte, error) {
	if rr, ok := fs.(interface {
		ReadRange(path string, off, length int64) ([]byte, error)
	}); ok {
		return rr.ReadRange(path, 0, math.MaxInt64)
	}
	return ReadFile(fs, path)
}

// Extent is a contiguous byte range of a file stored as one unit — an
// HDFS block — with the hosts that hold it.
type Extent struct {
	Offset, Length int64
	Hosts          []string
}

// Extents returns the storage layout of the file at path, from a
// filesystem with an Extents method (the HDFS client), or nil from one
// without: a file there is one byte range with no host to be near.
func Extents(fs FileSystem, path string) ([]Extent, error) {
	if ef, ok := fs.(interface {
		Extents(path string) ([]Extent, error)
	}); ok {
		return ef.Extents(path)
	}
	return nil, nil
}

// BytesFile returns a read handle over data, which the caller must not
// modify afterwards. Its Len method reports the unread length, which
// lets ReadFile allocate once.
func BytesFile(data []byte) io.ReadCloser { return bytesFile{bytes.NewReader(data)} }

type bytesFile struct{ *bytes.Reader }

func (bytesFile) Close() error { return nil }

// WriteFile creates path with the given contents, creating parents. On
// error it leaves no file behind.
func WriteFile(fs FileSystem, path string, data []byte) error {
	dir, _ := Split(path)
	if err := fs.Mkdir(dir); err != nil {
		return err
	}
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if err := writeAndClose(w, data); err != nil {
		if Exists(fs, path) { // a failed Write still Closes, which commits
			_ = fs.Remove(path, false) // the write's error is the one to report
		}
		return err
	}
	return nil
}

func writeAndClose(w io.WriteCloser, data []byte) error {
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// AppendFile appends data to the file at path, creating the file and its
// parents when absent: one log record, durable when it returns.
func AppendFile(fs FileSystem, path string, data []byte) error {
	dir, _ := Split(path)
	if err := fs.Mkdir(dir); err != nil {
		return err
	}
	w, err := fs.Append(path)
	if err != nil {
		return err
	}
	return writeAndClose(w, data)
}

// Exists reports whether path names a file or directory.
func Exists(fs FileSystem, path string) bool {
	_, err := fs.Stat(path)
	return err == nil
}

// Walk visits every file (not directory) under root in sorted order.
func Walk(fs FileSystem, root string, fn func(FileInfo) error) error {
	info, err := fs.Stat(root)
	if err != nil {
		return err
	}
	if !info.IsDir {
		return fn(info)
	}
	children, err := fs.List(root)
	if err != nil {
		return err
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Path < children[j].Path })
	for _, c := range children {
		if err := Walk(fs, c.Path, fn); err != nil {
			return err
		}
	}
	return nil
}

// CopyFile copies a single file between (possibly different) filesystems,
// returning the bytes moved. This is the engine under the shell's -put,
// -get and -copyToLocal commands.
func CopyFile(src FileSystem, srcPath string, dst FileSystem, dstPath string) (int64, error) {
	r, err := src.Open(srcPath)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	dir, _ := Split(dstPath)
	if err := dst.Mkdir(dir); err != nil {
		return 0, err
	}
	w, err := dst.Create(dstPath)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(w, r)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// CopyTree copies a file, or a directory recursively, returning total bytes.
func CopyTree(src FileSystem, srcPath string, dst FileSystem, dstPath string) (int64, error) {
	info, err := src.Stat(srcPath)
	if err != nil {
		return 0, err
	}
	if !info.IsDir {
		return CopyFile(src, srcPath, dst, dstPath)
	}
	if err := dst.Mkdir(dstPath); err != nil {
		return 0, err
	}
	children, err := src.List(srcPath)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range children {
		n, err := CopyTree(src, c.Path, dst, Join(dstPath, c.Name()))
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// DiskUsage returns the total size in bytes of all files under root.
func DiskUsage(fs FileSystem, root string) (int64, error) {
	var total int64
	err := Walk(fs, root, func(fi FileInfo) error {
		total += fi.Size
		return nil
	})
	return total, err
}

// PathError decorates an error with the operation and path, in the style
// of os.PathError.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string {
	return fmt.Sprintf("%s %s: %v", e.Op, e.Path, e.Err)
}

func (e *PathError) Unwrap() error { return e.Err }
