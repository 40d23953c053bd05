package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"leakbound/internal/telemetry"
)

func newTestAdmission(capacity int64, depth int, wait time.Duration) (*admission, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return newAdmission(capacity, depth, wait, reg.Scope("server")), reg
}

// TestAdmissionWeightsAndClamp: an oversized weight is clamped to
// capacity, so heavy requests serialize instead of deadlocking.
func TestAdmissionWeightsAndClamp(t *testing.T) {
	adm, _ := newTestAdmission(2, 4, time.Second)
	ctx := context.Background()
	if err := adm.Acquire(ctx, weightHeavy); err != nil {
		t.Fatalf("heavy acquire on idle semaphore: %v", err)
	}
	// Capacity exhausted: a light acquire must queue, not pass.
	done := make(chan error, 1)
	go func() { done <- adm.Acquire(ctx, 1) }()
	select {
	case err := <-done:
		t.Fatalf("light acquire passed a saturated semaphore (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	adm.Release(weightHeavy)
	if err := <-done; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	adm.Release(1)
}

// TestAdmissionFIFO: waiters are granted in arrival order even when a
// later, smaller request would fit sooner.
func TestAdmissionFIFO(t *testing.T) {
	adm, _ := newTestAdmission(2, 8, time.Minute)
	ctx := context.Background()
	if err := adm.Acquire(ctx, 2); err != nil {
		t.Fatal(err)
	}
	firstIn := make(chan struct{})
	secondIn := make(chan struct{})
	go func() { adm.Acquire(ctx, 2); close(firstIn) }()
	// Let the weight-2 waiter enqueue first.
	waitForGauge(t, adm.queued, 1)
	go func() { adm.Acquire(ctx, 1); close(secondIn) }()
	waitForGauge(t, adm.queued, 2)

	adm.Release(1) // one unit free: fits the weight-1 waiter, but it is second
	select {
	case <-secondIn:
		t.Fatal("weight-1 waiter jumped the queue past the weight-2 head")
	case <-time.After(50 * time.Millisecond):
	}
	adm.Release(1) // now the head fits
	<-firstIn
	adm.Release(2)
	<-secondIn
}

// TestOverloadQueueFull429: with capacity saturated and the queue at its
// bound, the next request is rejected immediately with 429 + Retry-After.
func TestOverloadQueueFull429(t *testing.T) {
	before := runtime.NumGoroutine()
	s, reg := newTestServer(t, 0.02, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.QueueWait = time.Minute
		c.CacheEntries = -1 // every request must reach admission
	})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s.handleCompute("GET /hold", "/hold", weightLight,
		func(ctx context.Context, _ *http.Request) ([]byte, string, error) {
			started <- struct{}{}
			select {
			case <-release:
				return []byte("ok\n"), "text/plain", nil
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	// Distinct query strings defeat coalescing so each request reaches the
	// semaphore on its own.
	resp := make(chan int, 2)
	go func() {
		r, err := ts.Client().Get(ts.URL + "/hold?k=a")
		if err == nil {
			r.Body.Close()
			resp <- r.StatusCode
		}
	}()
	<-started // a holds the only unit
	go func() {
		r, err := ts.Client().Get(ts.URL + "/hold?k=b")
		if err == nil {
			r.Body.Close()
			resp <- r.StatusCode
		}
	}()
	waitForGauge(t, s.sem.queued, 1) // b occupies the whole queue

	r, err := ts.Client().Get(ts.URL + "/hold?k=c")
	if err != nil {
		t.Fatalf("third request: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if v := reg.Scope("server").Counter("admission/rejected_queue_full").Value(); v != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", v)
	}
	release <- struct{}{}
	release <- struct{}{}
	for i := 0; i < 2; i++ {
		if code := <-resp; code != http.StatusOK {
			t.Errorf("held request %d finished with %d, want 200", i, code)
		}
	}
	waitForGoroutines(t, before)
}

// TestOverloadWaitTimeout503: a queued request whose bounded wait expires
// is rejected with 503 + Retry-After.
func TestOverloadWaitTimeout503(t *testing.T) {
	before := runtime.NumGoroutine()
	s, reg := newTestServer(t, 0.02, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
		c.QueueWait = 50 * time.Millisecond
		c.CacheEntries = -1
	})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s.handleCompute("GET /hold", "/hold", weightLight,
		func(ctx context.Context, _ *http.Request) ([]byte, string, error) {
			started <- struct{}{}
			select {
			case <-release:
				return []byte("ok\n"), "text/plain", nil
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	holderDone := make(chan int, 1)
	go func() {
		r, err := ts.Client().Get(ts.URL + "/hold?k=a")
		if err == nil {
			r.Body.Close()
			holderDone <- r.StatusCode
		}
	}()
	<-started

	r, err := ts.Client().Get(ts.URL + "/hold?k=b")
	if err != nil {
		t.Fatalf("queued request: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wait-timeout status = %d, want 503", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if v := reg.Scope("server").Counter("admission/rejected_wait_timeout").Value(); v != 1 {
		t.Errorf("rejected_wait_timeout = %d, want 1", v)
	}
	close(release)
	if code := <-holderDone; code != http.StatusOK {
		t.Errorf("holder finished with %d, want 200", code)
	}
	waitForGoroutines(t, before)
}

// TestClientDisconnectCancelsCompute: dropping the connection mid-compute
// must cancel the underlying work (the simulation context) and leak no
// goroutines — the server must not keep simulating for a client that left.
func TestClientDisconnectCancelsCompute(t *testing.T) {
	before := runtime.NumGoroutine()
	s, reg := newTestServer(t, 0.02, func(c *Config) { c.CacheEntries = -1 })
	started := make(chan struct{})
	cancelled := make(chan error, 1)
	s.handleCompute("GET /watch", "/watch", weightLight,
		func(ctx context.Context, _ *http.Request) ([]byte, string, error) {
			close(started)
			select {
			case <-ctx.Done():
				cancelled <- ctx.Err()
				return nil, "", ctx.Err()
			case <-time.After(30 * time.Second):
				return nil, "", errors.New("compute outlived its client")
			}
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodGet, ts.URL+"/watch", nil)
	go ts.Client().Do(req) //nolint:errcheck // the error is the point: context canceled

	<-started
	cancelReq()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("compute context ended with %v, want Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("compute context not cancelled after client disconnect")
	}
	waitForCounter(t, reg.Scope("server").Counter("client_disconnects"), 1)
	waitForGoroutines(t, before)
}

// waitForGauge polls a gauge until it reaches want.
func waitForGauge(t *testing.T, g *telemetry.Gauge, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge stuck at %d, want %d", g.Value(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitForCounter polls a counter until it reaches at least want.
func waitForCounter(t *testing.T, c *telemetry.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want >= %d", c.Value(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestComputePanicIsCounted500: a compute fn that panics answers 500,
// counts server/panics, releases its admission units, and leaves its key
// usable, so the next identical request computes normally.
func TestComputePanicIsCounted500(t *testing.T) {
	s, reg := newTestServer(t, 0.02, func(c *Config) {
		c.Workers = 1
		c.RequestTimeout = 10 * time.Second
	})
	var calls atomic.Int64
	s.handleCompute("GET /flaky", "/flaky", weightHeavy,
		func(context.Context, *http.Request) ([]byte, string, error) {
			if calls.Add(1) == 1 {
				panic("boom")
			}
			return []byte("ok\n"), "text/plain", nil
		})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i, want := range []int{http.StatusInternalServerError, http.StatusOK} {
		r, err := ts.Client().Get(ts.URL + "/flaky")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Fatalf("request %d: status %d, want %d", i, r.StatusCode, want)
		}
	}
	if got := reg.Scope("server").Counter("panics").Value(); got != 1 {
		t.Errorf("server/panics = %d, want 1", got)
	}
}
