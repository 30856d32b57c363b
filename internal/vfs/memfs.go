package vfs

import (
	"bytes"
	"io"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FileSystem. It is safe for concurrent use, which
// lets the serial runner execute mappers in parallel against it.
type MemFS struct {
	mu    sync.RWMutex
	files map[string][]byte // cleaned path -> contents
	dirs  map[string]bool   // cleaned path -> exists
}

var _ FileSystem = (*MemFS)(nil)

// NewMemFS returns an empty in-memory filesystem containing only "/".
func NewMemFS() *MemFS {
	return &MemFS{
		files: make(map[string][]byte),
		dirs:  map[string]bool{"/": true},
	}
}

func (m *MemFS) Create(path string) (io.WriteCloser, error) {
	p := Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[p] {
		return nil, &PathError{Op: "create", Path: p, Err: ErrIsDir}
	}
	if _, ok := m.files[p]; ok {
		return nil, &PathError{Op: "create", Path: p, Err: ErrExist}
	}
	dir, _ := Split(p)
	if !m.dirs[dir] {
		return nil, &PathError{Op: "create", Path: p, Err: ErrNotExist}
	}
	return &memWriter{fs: m, path: p}, nil
}

// Append buffers like Create; Close then extends the stored slice in
// place, so an append costs its own bytes, not the file's.
func (m *MemFS) Append(path string) (io.WriteCloser, error) {
	p := Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.dirs[p] {
		return nil, &PathError{Op: "append", Path: p, Err: ErrIsDir}
	}
	if _, ok := m.files[p]; !ok {
		if dir, _ := Split(p); !m.dirs[dir] {
			return nil, &PathError{Op: "append", Path: p, Err: ErrNotExist}
		}
	}
	return &memWriter{fs: m, path: p, appending: true}, nil
}

type memWriter struct {
	fs        *MemFS
	path      string
	buf       bytes.Buffer
	appending bool
	closed    bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	return w.buf.Write(p)
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.appending {
		// Readers hold slices of the old length; bytes written past it,
		// in place or in a regrown array, are invisible to them.
		w.fs.files[w.path] = append(w.fs.files[w.path], w.buf.Bytes()...)
		return nil
	}
	w.fs.files[w.path] = append([]byte(nil), w.buf.Bytes()...)
	return nil
}

func (m *MemFS) Open(path string) (io.ReadCloser, error) {
	p := Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.dirs[p] {
		return nil, &PathError{Op: "open", Path: p, Err: ErrIsDir}
	}
	data, ok := m.files[p]
	if !ok {
		return nil, &PathError{Op: "open", Path: p, Err: ErrNotExist}
	}
	return BytesFile(data), nil
}

func (m *MemFS) Stat(path string) (FileInfo, error) {
	p := Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.dirs[p] {
		return FileInfo{Path: p, IsDir: true}, nil
	}
	if data, ok := m.files[p]; ok {
		return FileInfo{Path: p, Size: int64(len(data))}, nil
	}
	return FileInfo{}, &PathError{Op: "stat", Path: p, Err: ErrNotExist}
}

func (m *MemFS) List(path string) ([]FileInfo, error) {
	p := Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.files[p]; ok {
		return nil, &PathError{Op: "list", Path: p, Err: ErrNotDir}
	}
	if !m.dirs[p] {
		return nil, &PathError{Op: "list", Path: p, Err: ErrNotExist}
	}
	// Stored keys are clean, so a direct child is the prefix plus one
	// slash-free segment: no key is split or cleaned again.
	prefix := p + "/"
	if p == "/" {
		prefix = "/"
	}
	child := func(path string) bool {
		return len(path) > len(prefix) && strings.HasPrefix(path, prefix) &&
			strings.IndexByte(path[len(prefix):], '/') < 0
	}
	var out []FileInfo
	for fp, data := range m.files {
		if child(fp) {
			out = append(out, FileInfo{Path: fp, Size: int64(len(data))})
		}
	}
	for dp := range m.dirs {
		if child(dp) {
			out = append(out, FileInfo{Path: dp, IsDir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func (m *MemFS) Mkdir(path string) error {
	p := Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mkdirLocked(p)
}

func (m *MemFS) mkdirLocked(p string) error {
	if m.dirs[p] {
		return nil
	}
	if _, ok := m.files[p]; ok {
		return &PathError{Op: "mkdir", Path: p, Err: ErrNotDir}
	}
	if p != "/" {
		dir, _ := Split(p)
		if err := m.mkdirLocked(dir); err != nil {
			return err
		}
	}
	m.dirs[p] = true
	return nil
}

func (m *MemFS) Remove(path string, recursive bool) error {
	p := Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; ok {
		delete(m.files, p)
		return nil
	}
	if !m.dirs[p] {
		return &PathError{Op: "remove", Path: p, Err: ErrNotExist}
	}
	if p == "/" {
		return &PathError{Op: "remove", Path: p, Err: ErrInvalid}
	}
	prefix := p + "/"
	// Sorted so the removal sequence is reproducible, not map-ordered —
	// deletes commute today, but anything metering or tracing them must
	// not inherit map iteration order.
	var children []string
	for fp := range m.files {
		if strings.HasPrefix(fp, prefix) {
			children = append(children, fp)
		}
	}
	sort.Strings(children)
	var childDirs []string
	for dp := range m.dirs {
		if strings.HasPrefix(dp, prefix) {
			childDirs = append(childDirs, dp)
		}
	}
	sort.Strings(childDirs)
	if !recursive && (len(children) > 0 || len(childDirs) > 0) {
		return &PathError{Op: "remove", Path: p, Err: ErrNotEmpty}
	}
	for _, fp := range children {
		delete(m.files, fp)
	}
	for _, dp := range childDirs {
		delete(m.dirs, dp)
	}
	delete(m.dirs, p)
	return nil
}

func (m *MemFS) Rename(oldPath, newPath string) error {
	op, np := Clean(oldPath), Clean(newPath)
	m.mu.Lock()
	defer m.mu.Unlock()
	if data, ok := m.files[op]; ok {
		if _, exists := m.files[np]; exists || m.dirs[np] {
			return &PathError{Op: "rename", Path: np, Err: ErrExist}
		}
		dir, _ := Split(np)
		if !m.dirs[dir] {
			return &PathError{Op: "rename", Path: np, Err: ErrNotExist}
		}
		m.files[np] = data
		delete(m.files, op)
		return nil
	}
	if m.dirs[op] {
		prefix := op + "/"
		if strings.HasPrefix(np, prefix) {
			return &PathError{Op: "rename", Path: np, Err: ErrInvalid} // into its own subtree
		}
		if _, exists := m.files[np]; exists || m.dirs[np] {
			return &PathError{Op: "rename", Path: np, Err: ErrExist}
		}
		moved := map[string][]byte{}
		for fp, data := range m.files {
			if strings.HasPrefix(fp, prefix) {
				moved[np+"/"+fp[len(prefix):]] = data
				delete(m.files, fp)
			}
		}
		for fp, data := range moved {
			m.files[fp] = data
		}
		movedDirs := []string{}
		for dp := range m.dirs {
			if strings.HasPrefix(dp, prefix) {
				movedDirs = append(movedDirs, dp)
			}
		}
		sort.Strings(movedDirs)
		for _, dp := range movedDirs {
			delete(m.dirs, dp)
			m.dirs[np+"/"+dp[len(prefix):]] = true
		}
		delete(m.dirs, op)
		m.dirs[np] = true
		return nil
	}
	return &PathError{Op: "rename", Path: op, Err: ErrNotExist}
}

// TotalBytes returns the sum of all file sizes (for quota-style tests).
func (m *MemFS) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, data := range m.files {
		n += int64(len(data))
	}
	return n
}
