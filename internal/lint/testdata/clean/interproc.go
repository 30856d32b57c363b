// Interprocedural negatives: the shapes dettaint, lockorder and
// commiterr must accept — deterministic helpers, a consistent lock
// order, and commit errors that are always observed.
package clean

import (
	"sync"

	"repro/internal/vfs"
)

// firstKey picks deterministically: sorted keys, then the first. No
// map-order taint for callers to inherit.
func firstKey(m map[string]int) string {
	keys := sortedKeys(m)
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

func chooseEntry(m map[string]int) string {
	return firstKey(m)
}

// front never calls into back while it holds its own lock: it reads
// the pointer under f.mu, releases, then calls. Every mutex is a leaf
// lock, so there is no lock order to get wrong.
type front struct {
	mu   sync.Mutex
	back *back
}

type back struct {
	mu sync.Mutex
	n  int
}

func (f *front) poke() {
	f.mu.Lock()
	b := f.back
	f.mu.Unlock()
	b.bump()
}

func (b *back) bump() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// persist returns the sink's error; checkAndPersist observes it. Every
// commit on this path is accounted for.
func persist(fs vfs.FileSystem, data []byte) error {
	return vfs.WriteFile(fs, "/state", data)
}

func checkAndPersist(fs vfs.FileSystem, data []byte) error {
	if err := persist(fs, data); err != nil {
		return err
	}
	return nil
}

// pokeLater defers the call into back between its lock and an explicit
// unlock: the deferred call runs at return, after f.mu is released.
func (f *front) pokeLater() {
	f.mu.Lock()
	defer f.back.bump()
	f.mu.Unlock()
}
