package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leakbound/internal/telemetry"
)

func newTestFlights() (*flightGroup, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return newFlightGroup(reg.Scope("server")), reg
}

// TestFlightGroupCoalesces: N concurrent calls on one key run fn once and
// all observe the leader's result.
func TestFlightGroupCoalesces(t *testing.T) {
	fg, reg := newTestFlights()
	var runs atomic.Int64
	gate := make(chan struct{})
	fn := func() (*cachedResult, error) {
		runs.Add(1)
		<-gate
		return &cachedResult{body: []byte("shared")}, nil
	}
	const n = 8
	var wg sync.WaitGroup
	results := make([]*cachedResult, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = fg.Do(context.Background(), "k", fn)
		}(i)
	}
	// Let every goroutine reach the flight before the leader finishes.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Scope("server").Counter("coalesce/coalesced_waits").Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters coalesced",
				reg.Scope("server").Counter("coalesce/coalesced_waits").Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if string(results[i].body) != "shared" {
			t.Fatalf("call %d got %q", i, results[i].body)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := reg.Scope("server").Counter("coalesce/leader_runs").Value(); got != 1 {
		t.Errorf("leader_runs = %d, want 1", got)
	}
}

// TestFlightGroupDistinctKeys run independently.
func TestFlightGroupDistinctKeys(t *testing.T) {
	fg, _ := newTestFlights()
	var runs atomic.Int64
	fn := func() (*cachedResult, error) {
		runs.Add(1)
		return &cachedResult{}, nil
	}
	for _, k := range []string{"a", "b", "a"} {
		if _, err := fg.Do(context.Background(), k, fn); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential calls never coalesce: the flight is gone once Do returns.
	if got := runs.Load(); got != 3 {
		t.Errorf("fn ran %d times, want 3", got)
	}
}

// TestFlightGroupWaiterRetriesAfterLeaderFailure: a leader cancelled by
// its own client must not poison waiters — a surviving waiter retries and
// becomes the next leader.
func TestFlightGroupWaiterRetriesAfterLeaderFailure(t *testing.T) {
	fg, reg := newTestFlights()
	leaderIn := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var calls atomic.Int64
	fn := func() (*cachedResult, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		}
		return &cachedResult{body: []byte("retried")}, nil
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := fg.Do(leaderCtx, "k", fn)
		leaderErr <- err
	}()
	<-leaderIn
	waiterRes := make(chan *cachedResult, 1)
	go func() {
		res, err := fg.Do(context.Background(), "k", fn)
		if err != nil {
			t.Errorf("waiter failed: %v", err)
		}
		waiterRes <- res
	}()
	waitForCounter(t, reg.Scope("server").Counter("coalesce/coalesced_waits"), 1)
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader error = %v, want Canceled", err)
	}
	select {
	case res := <-waiterRes:
		if string(res.body) != "retried" {
			t.Errorf("waiter result = %q, want %q", res.body, "retried")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never recovered from leader failure")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("fn ran %d times, want 2 (failed leader + retrying waiter)", got)
	}
}

// TestFlightGroupWaiterCancel: a waiter that gives up returns its own
// context error without disturbing the leader.
func TestFlightGroupWaiterCancel(t *testing.T) {
	fg, reg := newTestFlights()
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	fn := func() (*cachedResult, error) {
		close(leaderIn)
		<-gate
		return &cachedResult{body: []byte("done")}, nil
	}
	leaderRes := make(chan *cachedResult, 1)
	go func() {
		res, err := fg.Do(context.Background(), "k", fn)
		if err != nil {
			t.Errorf("leader failed: %v", err)
		}
		leaderRes <- res
	}()
	<-leaderIn
	wctx, cancelWaiter := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := fg.Do(wctx, "k", fn)
		waiterErr <- err
	}()
	waitForCounter(t, reg.Scope("server").Counter("coalesce/coalesced_waits"), 1)
	cancelWaiter()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter error = %v, want Canceled", err)
	}
	close(gate)
	if res := <-leaderRes; string(res.body) != "done" {
		t.Errorf("leader result = %q, want %q", res.body, "done")
	}
}

// TestFlightGroupLeaderPanicReleasesKey: a leader whose fn panics must not
// wedge its key. The panic reaches the leader's caller, a waiter blocked
// on the flight retries as the next leader, and later calls run normally
// instead of waiting out their deadlines.
func TestFlightGroupLeaderPanicReleasesKey(t *testing.T) {
	fg, reg := newTestFlights()
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	var calls atomic.Int64
	fn := func() (*cachedResult, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-gate
			panic("boom")
		}
		return &cachedResult{body: []byte("after")}, nil
	}
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		_, _ = fg.Do(context.Background(), "k", fn)
	}()
	<-leaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	waiter := make(chan error, 1)
	go func() {
		res, err := fg.Do(ctx, "k", fn)
		if err == nil && string(res.body) != "after" {
			err = errors.New("waiter got " + string(res.body))
		}
		waiter <- err
	}()
	waitForCounter(t, reg.Scope("server").Counter("coalesce/coalesced_waits"), 1)
	close(gate)
	if v := <-leaderPanic; v != "boom" {
		t.Fatalf("leader recovered %v, want the fn's panic", v)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter after a panicked leader: %v", err)
	}
	if _, err := fg.Do(ctx, "k", fn); err != nil {
		t.Fatalf("Do on the released key: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("fn ran %d times, want 3 (panicked leader, retrying waiter, later call)", got)
	}
}
