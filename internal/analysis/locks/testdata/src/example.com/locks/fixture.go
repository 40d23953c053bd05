// Package locks is the locks fixture: release discipline, both ways.
package locks

import "sync"

// Box guards a counter.
type Box struct {
	mu sync.Mutex
	n  int
}

// RWBox guards with a reader/writer lock.
type RWBox struct {
	rw sync.RWMutex
	v  int
}

// DeferRelease is the canonical shape.
func (b *Box) DeferRelease() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

// StraightLine releases unconditionally with nothing in between that can
// escape.
func (b *Box) StraightLine() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// BranchLocal is the singleflight idiom: every early return releases on
// its own path before an unconditional release at the end.
func (b *Box) BranchLocal(fast bool) int {
	b.mu.Lock()
	if fast {
		n := b.n
		b.mu.Unlock()
		return n
	}
	b.n++
	b.mu.Unlock()
	return b.n
}

// EarlyReturn escapes while still holding the lock.
func (b *Box) EarlyReturn(fast bool) int {
	b.mu.Lock() // want `b\.mu\.Lock\(\) is not reliably released in this block`
	if fast {
		return b.n
	}
	b.mu.Unlock()
	return 0
}

// NeverReleased falls off the end of the function with the lock held.
func (b *Box) NeverReleased() {
	b.mu.Lock() // want `b\.mu\.Lock\(\) is not reliably released in this block`
	b.n++
}

// ReaderDiscipline applies the same rules to RLock/RUnlock.
func (b *RWBox) ReaderDiscipline() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.v
}

// ReaderLeak leaks the read lock.
func (b *RWBox) ReaderLeak() int {
	b.rw.RLock() // want `b\.rw\.RLock\(\) is not reliably released in this block`
	return b.v
}

// ClosureRelease recognizes the deferred-closure form.
func (b *Box) ClosureRelease() {
	b.mu.Lock()
	defer func() {
		b.n++
		b.mu.Unlock()
	}()
	b.n++
}

// SuppressedHandoff shows the escape hatch for deliberate ownership
// transfer.
func SuppressedHandoff(b *Box) {
	//lint:ignore locks fixture: lock intentionally held across the handoff; release happens in Finish
	b.mu.Lock()
	b.n++
}
