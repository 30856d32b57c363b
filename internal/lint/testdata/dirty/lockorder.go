package dirty

import "sync"

// Deep self-deadlock: outer holds mu and calls middle, which calls
// inner, which re-acquires mu. The same check flags a re-acquisition
// one call down (lockguard.go) and any number of calls down.

type deepLocker struct {
	mu sync.Mutex
	n  int
}

func (d *deepLocker) outer() {
	d.mu.Lock()
	d.middle() // want: lockorder
	d.mu.Unlock()
}

func (d *deepLocker) middle() {
	d.inner()
}

func (d *deepLocker) inner() {
	d.mu.Lock()
	d.n++
	d.mu.Unlock()
}

// ABBA: nodeA.poke acquires nodeB.mu while holding nodeA.mu; nodeB.poke
// takes the opposite order. Each edge of the cycle is flagged at its
// witness call site.

type nodeA struct {
	mu   sync.Mutex
	n    int
	peer *nodeB
}

type nodeB struct {
	mu   sync.Mutex
	n    int
	peer *nodeA
}

func (a *nodeA) poke() {
	a.mu.Lock()
	a.peer.touch() // want: lockorder
	a.mu.Unlock()
}

func (a *nodeA) touch() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

func (b *nodeB) poke() {
	b.mu.Lock()
	b.peer.touch() // want: lockorder
	b.mu.Unlock()
}

func (b *nodeB) touch() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// Read-read chains on one RWMutex nest safely and must stay silent,
// unless a callee write-locks.

type rwPair struct {
	mu sync.RWMutex
	v  int
}

func (p *rwPair) readOuter() int {
	p.mu.RLock()
	v := p.readMiddle()
	p.mu.RUnlock()
	return v
}

func (p *rwPair) readMiddle() int {
	return p.readInner()
}

func (p *rwPair) readInner() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.v
}

// A read lock does not let a callee take the write lock: readThenUpgrade
// holds mu for reading while upgrade, two calls down, releases its own
// read lock and then write-locks mu. The check looks at every
// acquisition of the callee, not only its first.

func (p *rwPair) readThenUpgrade() int {
	p.mu.RLock()
	v := p.viaUpgrade() // want: lockorder
	p.mu.RUnlock()
	return v
}

func (p *rwPair) viaUpgrade() int {
	return p.upgrade()
}

func (p *rwPair) upgrade() int {
	p.mu.RLock()
	v := p.v
	p.mu.RUnlock()
	p.mu.Lock()
	p.v++
	p.mu.Unlock()
	return v
}
