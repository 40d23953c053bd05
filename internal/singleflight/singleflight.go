// Package singleflight deduplicates concurrent computations by key. The
// first caller for a key leads and runs the computation; callers that
// arrive while it runs wait for its result or for their own context,
// whichever ends first. A leader's failure does not poison its waiters —
// it may be the leader's own client hanging up — so each waiter loops and
// the next one through leads a fresh attempt. The leader's cleanup is
// deferred, so a panicking computation releases its key: waiters retry,
// and the panic continues up the leader's stack.
//
// The experiments Suite runs each benchmark's simulation through a Group,
// and leakaged coalesces identical requests through another.
package singleflight

import (
	"context"
	"errors"
	"sync"

	"leakbound/internal/telemetry"
)

// Group deduplicates concurrent calls by key. The zero value is ready to
// use.
type Group[V any] struct {
	// Led and Waited, when non-nil, count the calls that became a leader
	// and the waits on another caller's flight (a waiter that retries after
	// a failed leader counts again).
	Led, Waited *telemetry.Counter

	mu      sync.Mutex
	flights map[string]*flight[V]
}

// flight is one in-progress computation; the leader closes done after
// setting val/err, and waiters read them only after <-done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// errLeaderPanicked is what waiters see when their leader's fn panicked;
// like any leader failure, it sends them round the loop to retry.
var errLeaderPanicked = errors.New("singleflight: leader panicked")

// Do returns the result of fn for key, running fn at most once across all
// concurrent callers with the same key. fn runs on the leader's goroutine
// and must honor the leader's context; a waiter whose own ctx ends first
// returns ctx.Err() without disturbing the flight.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		g.mu.Lock()
		if f, ok := g.flights[key]; ok {
			g.mu.Unlock()
			if g.Waited != nil {
				g.Waited.Add(1)
			}
			select {
			case <-f.done:
				if f.err == nil {
					return f.val, nil
				}
				continue
			case <-ctx.Done():
				return zero, ctx.Err()
			}
		}
		if g.flights == nil {
			g.flights = make(map[string]*flight[V])
		}
		f := &flight[V]{done: make(chan struct{})}
		g.flights[key] = f
		g.mu.Unlock()
		if g.Led != nil {
			g.Led.Add(1)
		}
		return g.lead(key, f, fn)
	}
}

// lead runs fn as key's leader.
func (g *Group[V]) lead(key string, f *flight[V], fn func() (V, error)) (V, error) {
	f.err = errLeaderPanicked // replaced unless fn panics
	defer func() {
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	return f.val, f.err
}
