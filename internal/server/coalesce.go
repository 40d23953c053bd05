package server

// Request coalescing: the HTTP-layer extension of the suite's
// per-benchmark singleflight (experiments.Suite.DataContext). N concurrent
// requests with the same canonical key run the compute function once — the
// first caller leads, the rest wait on its result or their own context,
// whichever finishes first. A leader that fails does not poison waiters:
// its failure may be its own client hanging up, so each waiter loops and
// the next one through takes leadership (the same retry discipline the
// suite uses, lifted to whole responses).

import (
	"context"
	"errors"
	"sync"

	"leakbound/internal/telemetry"
)

// flight is one in-progress computation; the leader closes done after
// publishing res/err, and waiters read them only after <-done.
type flight struct {
	done chan struct{}
	res  *cachedResult
	err  error
}

// flightGroup deduplicates concurrent computations by canonical key.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[string]*flight

	leaders   *telemetry.Counter
	coalesced *telemetry.Counter
}

// newFlightGroup builds the group and wires its telemetry into sc.
func newFlightGroup(sc *telemetry.Scope) *flightGroup {
	return &flightGroup{
		inflight:  make(map[string]*flight),
		leaders:   sc.Counter("coalesce/leader_runs"),
		coalesced: sc.Counter("coalesce/coalesced_waits"),
	}
}

// Do returns the result of fn for key, running fn at most once across all
// concurrent callers with the same key. fn must honor the leader's
// context; a waiter whose own ctx ends first returns ctx.Err() without
// disturbing the flight.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (*cachedResult, error)) (*cachedResult, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g.mu.Lock()
		if f, ok := g.inflight[key]; ok {
			g.mu.Unlock()
			g.coalesced.Add(1)
			select {
			case <-f.done:
				if f.err == nil {
					return f.res, nil
				}
				// The leader failed — possibly on its own cancelled
				// context. Loop: a deterministic failure fails again under
				// this caller's leadership; a leader-only cancellation
				// must not fail everyone else.
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		g.inflight[key] = f
		g.mu.Unlock()
		g.leaders.Add(1)
		return g.lead(key, f, fn)
	}
}

// errLeaderPanicked is what waiters see when their leader's fn panicked;
// like any leader failure, it sends them round the loop to retry.
var errLeaderPanicked = errors.New("server: coalesced computation panicked")

// lead runs fn as key's leader. The cleanup is deferred so it runs even if
// fn panics: the flight leaves the map and done closes, so waiters retry
// rather than block until their own deadlines, and the panic continues up
// to the handler's recovery.
func (g *flightGroup) lead(key string, f *flight, fn func() (*cachedResult, error)) (*cachedResult, error) {
	f.err = errLeaderPanicked // replaced unless fn panics
	defer func() {
		g.mu.Lock()
		delete(g.inflight, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.res, f.err = fn()
	return f.res, f.err
}
