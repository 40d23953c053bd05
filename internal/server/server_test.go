package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

// newTestServer builds a server over a tiny suite with a private registry.
func newTestServer(t testing.TB, scale float64, mutate func(*Config)) (*Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	suite := experiments.MustNew(
		experiments.WithScale(scale),
		experiments.WithMetrics(reg),
	)
	cfg := Config{Suite: suite, Registry: reg}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s, reg
}

// get fetches a URL and returns status, headers, and body.
func get(t *testing.T, client *http.Client, url string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestEndpointsServeJSON drives every endpoint once and checks status and
// JSON well-formedness.
func TestEndpointsServeJSON(t *testing.T) {
	s, _ := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jsonPaths := []string{
		"/api/v1/benchmarks",
		"/api/v1/figures/1",
		"/api/v1/figures/7?cache=i",
		"/api/v1/figures/8?cache=d",
		"/api/v1/figures/9?cache=i",
		"/api/v1/figures/10",
		"/api/v1/tables/1",
		"/api/v1/tables/2",
		"/api/v1/tables/3",
		"/api/v1/inflections",
		"/api/v1/inflections?tech=180nm",
		"/api/v1/eval?benchmark=gzip&cache=i&policy=opt-hybrid",
		"/api/v1/eval?benchmark=gzip&cache=d&policy=opt-sleep@5000&tech=100nm",
		"/api/v1/sweep?policy=opt-sleep&cache=i&thetas=1057,2000,5000",
		"/metrics.json",
	}
	for _, p := range jsonPaths {
		status, hdr, body := get(t, ts.Client(), ts.URL+p, nil)
		if status != http.StatusOK {
			t.Errorf("%s: status %d, body %s", p, status, body)
			continue
		}
		if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "json") {
			t.Errorf("%s: content type %q", p, ct)
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s: invalid JSON: %v", p, err)
		}
	}
	for _, p := range []string{"/healthz", "/readyz", "/metrics"} {
		if status, _, body := get(t, ts.Client(), ts.URL+p, nil); status != http.StatusOK {
			t.Errorf("%s: status %d, body %s", p, status, body)
		}
	}
}

// TestBadRequests pins the 400 surface: unknown benchmark, cache side,
// technology, policy, and malformed sweeps.
func TestBadRequests(t *testing.T) {
	s, _ := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, p := range []string{
		"/api/v1/eval",
		"/api/v1/eval?benchmark=nope",
		"/api/v1/eval?benchmark=gzip&cache=x",
		"/api/v1/eval?benchmark=gzip&tech=12nm",
		"/api/v1/eval?benchmark=gzip&policy=nope",
		"/api/v1/sweep?policy=prefetch-a",
		"/api/v1/sweep?thetas=0",
		"/api/v1/sweep?thetas=a,b",
		"/api/v1/sweep?from=10&to=5",
		"/api/v1/sweep?points=100000",
	} {
		if status, _, body := get(t, ts.Client(), ts.URL+p, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", p, status, body)
		}
	}
}

// TestETagAndResultCache checks the deterministic-response contract: a
// repeat request is a cache hit with the same ETag, and If-None-Match
// yields 304 with an empty body.
func TestETagAndResultCache(t *testing.T) {
	s, reg := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/api/v1/eval?benchmark=gzip&cache=i&policy=opt-drowsy"

	status, hdr, body := get(t, ts.Client(), url, nil)
	if status != http.StatusOK {
		t.Fatalf("first GET: %d %s", status, body)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on compute response")
	}
	if v := hdr.Get("X-Cache"); v != "miss" {
		t.Errorf("first GET X-Cache = %q, want miss", v)
	}

	status2, hdr2, body2 := get(t, ts.Client(), url, nil)
	if status2 != http.StatusOK || string(body2) != string(body) {
		t.Fatalf("repeat GET: %d, body equal=%v", status2, string(body2) == string(body))
	}
	if v := hdr2.Get("X-Cache"); v != "hit" {
		t.Errorf("repeat GET X-Cache = %q, want hit", v)
	}
	if hdr2.Get("ETag") != etag {
		t.Errorf("ETag changed across identical requests: %q vs %q", hdr2.Get("ETag"), etag)
	}
	if hits := reg.Scope("server").Counter("cache/hits").Value(); hits == 0 {
		t.Error("cache hit counter did not move")
	}

	status3, _, body3 := get(t, ts.Client(), url, map[string]string{"If-None-Match": etag})
	if status3 != http.StatusNotModified {
		t.Fatalf("If-None-Match GET: %d, want 304", status3)
	}
	if len(body3) != 0 {
		t.Errorf("304 carried a body: %q", body3)
	}
	// Query-parameter order must not defeat the cache.
	status4, hdr4, _ := get(t, ts.Client(),
		ts.URL+"/api/v1/eval?policy=opt-drowsy&cache=i&benchmark=gzip", nil)
	if status4 != http.StatusOK || hdr4.Get("X-Cache") != "hit" {
		t.Errorf("reordered query: status %d X-Cache %q, want 200 hit", status4, hdr4.Get("X-Cache"))
	}
}

// TestCoalescedFigureRequests is the acceptance criterion: concurrent
// identical figure requests run exactly one computation — one coalesce
// leader, and one fresh simulation per benchmark (not per request).
func TestCoalescedFigureRequests(t *testing.T) {
	s, reg := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/api/v1/figures/7?cache=i"

	const n = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := ts.Client().Get(url)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = errors.New(resp.Status)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d: body diverges from request 0", i)
		}
	}
	sc := reg.Scope("server")
	if leaders := sc.Counter("coalesce/leader_runs").Value(); leaders != 1 {
		t.Errorf("leader_runs = %d, want 1", leaders)
	}
	if waits := sc.Counter("coalesce/coalesced_waits").Value(); waits < n-1 {
		t.Errorf("coalesced_waits = %d, want >= %d", waits, n-1)
	}
	wantSims := uint64(len(workload.Names()))
	if sims := reg.Scope("suite").Counter("fresh_sims").Value(); sims != wantSims {
		t.Errorf("fresh_sims = %d, want exactly %d (one per benchmark)", sims, wantSims)
	}
}

// TestGracefulDrain cancels the serve context while a request is in
// flight: the request must complete, Serve must return nil, and no
// pipeline goroutine may linger.
func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	s, _ := newTestServer(t, 0.02, func(c *Config) { c.DrainTimeout = 5 * time.Second })
	// A slow compute endpoint the drain must wait for.
	inHandler := make(chan struct{})
	s.handleCompute("GET /slow", "/slow", weightLight,
		func(ctx context.Context, _ *http.Request) ([]byte, string, error) {
			close(inHandler)
			select {
			case <-time.After(300 * time.Millisecond):
				return []byte("done\n"), "text/plain", nil
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()

	reqErr := make(chan error, 1)
	var status int
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			reqErr <- err
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		status = resp.StatusCode
		reqErr <- nil
	}()
	<-inHandler
	cancel() // SIGTERM equivalent: drain with the request in flight
	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("in-flight request status %d, want 200", status)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil (clean drain)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	waitForGoroutines(t, before)
}

// TestDrainTimeoutForcesCancel pins the force path: a request that never
// finishes on its own is cancelled through the base context when the
// drain bound expires, and Serve reports the forced drain.
func TestDrainTimeoutForcesCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	s, _ := newTestServer(t, 0.02, func(c *Config) { c.DrainTimeout = 100 * time.Millisecond })
	inHandler := make(chan struct{})
	sawCancel := make(chan error, 1)
	s.handleCompute("GET /hang", "/hang", weightLight,
		func(ctx context.Context, _ *http.Request) ([]byte, string, error) {
			close(inHandler)
			<-ctx.Done()
			sawCancel <- ctx.Err()
			return nil, "", ctx.Err()
		})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()

	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/hang")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-inHandler
	cancel()
	select {
	case err := <-sawCancel:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("handler context ended with %v, want Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handler context never cancelled by forced drain")
	}
	select {
	case err := <-serveErr:
		if err == nil {
			t.Error("Serve returned nil, want forced-drain error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after forced drain")
	}
	waitForGoroutines(t, before)
}

// TestReadyzDuringDrain checks the readiness flip.
func TestReadyzDuringDrain(t *testing.T) {
	s, _ := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, _, _ := get(t, ts.Client(), ts.URL+"/readyz", nil); status != http.StatusOK {
		t.Fatalf("readyz before drain: %d", status)
	}
	s.draining.Store(true)
	status, hdr, _ := get(t, ts.Client(), ts.URL+"/readyz", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}
}

// waitForGoroutines polls until the goroutine count returns near the
// baseline (the same tolerance the experiments leak tests use).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
