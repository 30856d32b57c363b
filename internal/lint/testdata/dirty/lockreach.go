package dirty

import "sync"

// Lock sites the leaf-lock rule sees whatever the mutex expression is.

// A leak through a field of a field: spanCtx.end holds c.r.mu and returns
// early, the shape of obs.Ctx.End.

type spanReg struct {
	mu    sync.Mutex
	spans []string
}

type spanCtx struct{ r *spanReg }

func (c spanCtx) end(name string, skip bool) {
	c.r.mu.Lock()
	if skip {
		return // want: lockorder
	}
	c.r.spans = append(c.r.spans, name)
	c.r.mu.Unlock()
}

// A re-lock on a loop variable's mutex: h.count() locks h.mu, which the
// loop body already holds, the shape of a Snapshot that reads a
// histogram through its accessor.

type hist struct {
	mu sync.Mutex
	n  int
}

func (h *hist) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

func sumCounts(hs []*hist) int {
	total := 0
	for _, h := range hs {
		h.mu.Lock()
		total += h.count() // want: lockorder
		h.mu.Unlock()
	}
	return total
}

// A recursive read lock through a callee: open read-locks m.mu and then
// calls stat, which read-locks it again, the shape of a MemFS.Open that
// asks Stat. A writer blocked between the two RLocks deadlocks both.

type memTable struct {
	mu    sync.RWMutex
	files map[string][]byte
}

func (m *memTable) stat(p string) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[p]
	return len(data), ok
}

func (m *memTable) open(p string) []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.stat(p); !ok { // want: lockorder
		return nil
	}
	return m.files[p]
}

// A lock the block that takes it never releases.

func (m *memTable) reset() {
	m.mu.Lock() // want: lockorder
	m.files = map[string][]byte{}
}

// A deferred call runs at return. Under an explicit unlock that is
// after the release, so the deferred h.add is no finding, but its
// argument is evaluated at the defer, under h.mu, and h.count() is.
func (h *hist) add(n int) {
	h.mu.Lock()
	h.n += n
	h.mu.Unlock()
}

func (h *hist) addCount() {
	h.mu.Lock()
	defer h.add(h.count()) // want: lockorder
	h.mu.Unlock()
}

// Under a deferred unlock a later defer runs first (LIFO), so h.add
// runs while h.mu is still held.
func (h *hist) addOnReturn(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	defer h.add(n) // want: lockorder
}
