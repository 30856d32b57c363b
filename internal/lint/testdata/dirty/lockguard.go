package dirty

import (
	"errors"
	"sync"
)

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) bumpAllowed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) doubleLock() int {
	c.mu.Lock()
	v := c.get() // want: lockorder
	c.mu.Unlock()
	return v
}

func (c *counter) leakyReturn(fail bool) error {
	c.mu.Lock()
	if fail {
		return errors.New("left holding the lock") // want: lockorder
	}
	c.mu.Unlock()
	return nil
}

func (c *counter) deferWrapperAllowed() int {
	c.mu.Lock()
	defer func() { c.mu.Unlock() }()
	return c.n
}

type shared struct {
	sync.RWMutex
	m map[string]int
}

func (s *shared) lookup(k string) int {
	s.RLock()
	defer s.RUnlock()
	return s.m[k]
}

func (s *shared) set(k string, v int) {
	s.Lock()
	defer s.Unlock()
	s.m[k] = v
}

func (s *shared) writeThenRead(k string) int {
	s.Lock()
	v := s.lookup(k) // want: lockorder
	s.Unlock()
	return v
}

func (s *shared) readChainAllowed(k string) int {
	s.RLock()
	v := s.lookup(k) // RLock while RLocked: shared locks nest
	s.RUnlock()
	return v
}

// Leaked locks are tracked per field: releasing b does not release a, so
// the early return still holds a.

type twoLocks struct {
	a, b sync.Mutex
	n    int
}

func (t *twoLocks) leakOuter(fail bool) error {
	t.a.Lock()
	t.b.Lock()
	t.n++
	t.b.Unlock()
	if fail {
		return errors.New("still holding a") // want: lockorder
	}
	t.a.Unlock()
	return nil
}
