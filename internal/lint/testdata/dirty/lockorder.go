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
// takes the opposite order. Each takes a second lock under its first,
// so both call sites are flagged.

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

// A read-read chain on one RWMutex is flagged too: a blocked Lock call
// excludes new readers (sync.RWMutex.RLock doc), so the inner RLock waits.

type rwPair struct {
	mu sync.RWMutex
	v  int
}

func (p *rwPair) readOuter() int {
	p.mu.RLock()
	v := p.readMiddle() // want: lockorder
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
// holds mu for reading while upgrade, two calls down, read-locks mu and
// then write-locks it; the finding's trace ends at upgrade's first lock
// in source order, the RLock.

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
