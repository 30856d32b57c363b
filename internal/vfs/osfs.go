package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// OsFS is a FileSystem rooted at a directory on the host filesystem. It is
// the "plain Linux file system" of the paper's serial assignments: the
// first assignment runs MapReduce jars against it directly, with no HDFS.
// All vfs paths are confined beneath the root.
type OsFS struct {
	root string
}

var _ FileSystem = (*OsFS)(nil)

// NewOsFS returns a filesystem rooted at dir, creating it if needed.
func NewOsFS(dir string) (*OsFS, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, err
	}
	return &OsFS{root: abs}, nil
}

func (o *OsFS) hostPath(path string) (string, error) {
	p := Clean(path)
	if !Valid(p) {
		return "", &PathError{Op: "resolve", Path: path, Err: ErrInvalid}
	}
	return filepath.Join(o.root, filepath.FromSlash(strings.TrimPrefix(p, "/"))), nil
}

func mapOsErr(op, path string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return &PathError{Op: op, Path: path, Err: ErrNotExist}
	case errors.Is(err, fs.ErrExist):
		return &PathError{Op: op, Path: path, Err: ErrExist}
	case errors.Is(err, syscall.EINVAL): // e.g. renaming a directory into its own subtree
		return &PathError{Op: op, Path: path, Err: ErrInvalid}
	default:
		return &PathError{Op: op, Path: path, Err: err}
	}
}

func (o *OsFS) Create(path string) (io.WriteCloser, error) {
	hp, err := o.hostPath(path)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(hp); err == nil {
		if fi.IsDir() {
			return nil, &PathError{Op: "create", Path: path, Err: ErrIsDir}
		}
		return nil, &PathError{Op: "create", Path: path, Err: ErrExist}
	}
	f, err := os.OpenFile(hp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, mapOsErr("create", path, err)
	}
	return f, nil
}

// Append opens the host file O_APPEND and holds the bytes back until
// Close, which issues them as one write: the commit point of the contract.
func (o *OsFS) Append(path string) (io.WriteCloser, error) {
	hp, err := o.hostPath(path)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(hp); err == nil && fi.IsDir() {
		return nil, &PathError{Op: "append", Path: path, Err: ErrIsDir}
	}
	f, err := os.OpenFile(hp, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, mapOsErr("append", path, err)
	}
	return &osAppender{f: f}, nil
}

type osAppender struct {
	f   *os.File
	buf []byte
}

func (a *osAppender) Write(p []byte) (int, error) {
	if a.f == nil {
		return 0, io.ErrClosedPipe
	}
	a.buf = append(a.buf, p...)
	return len(p), nil
}

func (a *osAppender) Close() error {
	if a.f == nil {
		return nil
	}
	f := a.f
	a.f = nil
	_, err := f.Write(a.buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (o *OsFS) Open(path string) (io.ReadCloser, error) {
	hp, err := o.hostPath(path)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(hp)
	if err != nil {
		return nil, mapOsErr("open", path, err)
	}
	if fi.IsDir() {
		return nil, &PathError{Op: "open", Path: path, Err: ErrIsDir}
	}
	f, err := os.Open(hp)
	if err != nil {
		return nil, mapOsErr("open", path, err)
	}
	// Bounded at the length it was opened with: a later Append must not
	// show through a handle that is already open.
	return &osReader{Reader: io.LimitReader(f, fi.Size()), f: f}, nil
}

type osReader struct {
	io.Reader
	f *os.File
}

func (r *osReader) Close() error { return r.f.Close() }

func (o *OsFS) Stat(path string) (FileInfo, error) {
	hp, err := o.hostPath(path)
	if err != nil {
		return FileInfo{}, err
	}
	fi, err := os.Stat(hp)
	if err != nil {
		return FileInfo{}, mapOsErr("stat", path, err)
	}
	return FileInfo{Path: Clean(path), Size: fi.Size(), IsDir: fi.IsDir()}, nil
}

func (o *OsFS) List(path string) ([]FileInfo, error) {
	hp, err := o.hostPath(path)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(hp)
	if err != nil {
		return nil, mapOsErr("list", path, err)
	}
	if !fi.IsDir() {
		return nil, &PathError{Op: "list", Path: path, Err: ErrNotDir}
	}
	entries, err := os.ReadDir(hp)
	if err != nil {
		return nil, mapOsErr("list", path, err)
	}
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, FileInfo{
			Path:  Join(path, e.Name()),
			Size:  info.Size(),
			IsDir: e.IsDir(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func (o *OsFS) Mkdir(path string) error {
	hp, err := o.hostPath(path)
	if err != nil {
		return err
	}
	return mapOsErr("mkdir", path, os.MkdirAll(hp, 0o755))
}

func (o *OsFS) Remove(path string, recursive bool) error {
	p := Clean(path)
	if p == "/" {
		return &PathError{Op: "remove", Path: p, Err: ErrInvalid}
	}
	hp, err := o.hostPath(p)
	if err != nil {
		return err
	}
	if _, err := os.Stat(hp); err != nil {
		return mapOsErr("remove", p, err)
	}
	if recursive {
		return mapOsErr("remove", p, os.RemoveAll(hp))
	}
	if err := os.Remove(hp); err != nil {
		var pe *os.PathError
		if errors.As(err, &pe) {
			return &PathError{Op: "remove", Path: p, Err: ErrNotEmpty}
		}
		return mapOsErr("remove", p, err)
	}
	return nil
}

func (o *OsFS) Rename(oldPath, newPath string) error {
	op, err := o.hostPath(oldPath)
	if err != nil {
		return err
	}
	np, err := o.hostPath(newPath)
	if err != nil {
		return err
	}
	if _, err := os.Stat(np); err == nil {
		return &PathError{Op: "rename", Path: newPath, Err: ErrExist}
	}
	return mapOsErr("rename", oldPath, os.Rename(op, np))
}
