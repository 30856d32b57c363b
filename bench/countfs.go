package main

import (
	"io"

	"repro/internal/vfs"
)

// countingFS wraps a vfs.FileSystem and counts what is written through
// it: the store-file, WAL and META traffic of the serving tier, measured
// from outside the layers that cause it.
type countingFS struct {
	vfs.FileSystem
	bytesWritten int64
	filesCreated int64
}

func (c *countingFS) Create(path string) (io.WriteCloser, error) {
	w, err := c.FileSystem.Create(path)
	if err != nil {
		return nil, err
	}
	c.filesCreated++
	return &countingWriter{WriteCloser: w, fs: c}, nil
}

type countingWriter struct {
	io.WriteCloser
	fs *countingFS
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.fs.bytesWritten += int64(n)
	return n, err
}
