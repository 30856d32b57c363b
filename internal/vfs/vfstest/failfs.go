package vfstest

import (
	"errors"
	"io"

	"repro/internal/vfs"
)

// ErrInjected is what a FailFS returns from the call it fails.
var ErrInjected = errors.New("injected storage fault")

// FailFS fails the FailAt-th mutating call made through it — Append,
// Create, Remove, Rename, a Mkdir of a directory that does not exist yet,
// and every Write and Close of the writers it hands out — without passing
// that call on, and remembers which call it was. Every other call goes
// through. Sweeping FailAt from 1 to the Calls of a dry run stands a
// storage fault inside one operation at every point it touches storage.
// (A counter, not the seeded fault-injecting filesystem of ROADMAP item
// 1: no short writes, no crash between two calls.)
type FailFS struct {
	vfs.FileSystem
	FailAt int    // 1-based; 0 never fails
	Calls  int    // mutating calls so far
	Failed string // "op path" of the call that failed, "" until it fires
}

func (f *FailFS) step(op, path string) error {
	f.Calls++
	if f.Calls == f.FailAt {
		f.Failed = op + " " + path
		return ErrInjected
	}
	return nil
}

func (f *FailFS) open(op, path string, open func(string) (io.WriteCloser, error)) (io.WriteCloser, error) {
	if err := f.step(op, path); err != nil {
		return nil, err
	}
	w, err := open(path)
	if err != nil {
		return nil, err
	}
	return &failWriter{w: w, fs: f, path: path}, nil
}

func (f *FailFS) Append(path string) (io.WriteCloser, error) {
	return f.open("append", path, f.FileSystem.Append)
}

func (f *FailFS) Create(path string) (io.WriteCloser, error) {
	return f.open("create", path, f.FileSystem.Create)
}

func (f *FailFS) Mkdir(path string) error {
	if !vfs.Exists(f.FileSystem, path) {
		if err := f.step("mkdir", path); err != nil {
			return err
		}
	}
	return f.FileSystem.Mkdir(path)
}

func (f *FailFS) Remove(path string, recursive bool) error {
	if err := f.step("remove", path); err != nil {
		return err
	}
	return f.FileSystem.Remove(path, recursive)
}

func (f *FailFS) Rename(oldPath, newPath string) error {
	if err := f.step("rename", oldPath); err != nil {
		return err
	}
	return f.FileSystem.Rename(oldPath, newPath)
}

type failWriter struct {
	w    io.WriteCloser
	fs   *FailFS
	path string
}

func (w *failWriter) Write(p []byte) (int, error) {
	if err := w.fs.step("write", w.path); err != nil {
		return 0, err
	}
	return w.w.Write(p)
}

func (w *failWriter) Close() error {
	if err := w.fs.step("close", w.path); err != nil {
		return err
	}
	return w.w.Close()
}
