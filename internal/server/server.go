// Package server is the HTTP serving subsystem behind cmd/leakaged: it
// exposes the experiment suite — figures, tables, inflection points, and
// parameterized (technology x policy x cache) queries — as JSON endpoints
// shaped for production traffic rather than batch runs.
//
// Every compute endpoint goes through the same pipeline:
//
//	result cache -> request coalescing -> admission control -> simulate
//
// The LRU result cache serves repeated queries without touching the
// simulator (deterministic results, strong ETags, 304 on If-None-Match);
// coalescing collapses N concurrent identical queries into one
// computation; the weighted admission semaphore — sized off the suite's
// WithWorkers bound — keeps the simulator from oversubscribing the
// machine, with bounded queueing and honest 429/503 + Retry-After
// responses past the bound. Each request's context is tied to its client
// connection and to the server's lifetime, and flows into
// cpu.RunStreamContext, so a hung-up client or a drain cancels the
// simulation it was paying for.
//
// Shutdown is a graceful drain: stop accepting, flip /readyz to 503,
// finish in-flight requests up to DrainTimeout, then cancel the base
// context to abort whatever remains. Telemetry (request counters, status
// classes, per-route log2 latency histograms, cache/coalesce/admission
// counters) lands in the same registry the simulation pipeline reports
// into, served live on /metrics from the same mux.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/singleflight"
	"leakbound/internal/telemetry"
)

// Config parameterizes a Server; Suite is the only required field.
type Config struct {
	// Suite provides the simulation products; required.
	Suite *experiments.Suite
	// Registry receives the server's telemetry and backs /metrics;
	// defaults to telemetry.Default().
	Registry *telemetry.Registry
	// Workers is the admission semaphore's capacity; defaults to the
	// suite's resolved worker bound (WithWorkers / GOMAXPROCS).
	Workers int
	// CacheEntries bounds the LRU result cache. Zero means
	// DefaultCacheEntries; a negative value disables result caching.
	CacheEntries int
	// QueueDepth bounds how many requests may wait for admission; beyond
	// it clients get 429. Defaults to DefaultQueueDepth when <= 0.
	QueueDepth int
	// QueueWait bounds how long one request may wait for admission;
	// beyond it clients get 503. Defaults to DefaultQueueWait when <= 0.
	QueueWait time.Duration
	// RequestTimeout caps one compute request's wall time (504 past it);
	// 0 means no cap.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain; in-flight requests still
	// running when it expires are cancelled. Defaults to
	// DefaultDrainTimeout when <= 0.
	DrainTimeout time.Duration
	// AccessLog receives one structured line per request; nil disables
	// access logging.
	AccessLog io.Writer
}

// Defaults for the zero-value Config knobs.
const (
	DefaultCacheEntries = 256
	DefaultQueueDepth   = 64
	DefaultQueueWait    = 2 * time.Second
	DefaultDrainTimeout = 10 * time.Second
)

// Server serves the experiment suite over HTTP. Construct with New; it is
// safe for concurrent use.
type Server struct {
	cfg      Config
	suite    *experiments.Suite
	reg      *telemetry.Registry
	scope    *telemetry.Scope
	mux      *http.ServeMux
	cache    *resultCache
	flights  *singleflight.Group[*cachedResult] // request coalescing by canonical key
	sem      *admission
	logger   *log.Logger
	draining atomic.Bool

	// base is the server-lifetime context: cancelled only when a drain
	// gives up waiting, aborting every in-flight simulation.
	base       context.Context
	baseCancel context.CancelFunc
}

// New validates cfg, applies defaults, and builds the route table.
func New(cfg Config) (*Server, error) {
	if cfg.Suite == nil {
		return nil, errors.New("server: Config.Suite is required")
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.Suite.Workers()
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = DefaultQueueWait
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	//lint:ignore ctxflow the server's base context is the lifecycle root every request context merges into; it is detached from any caller by design
	base, cancel := context.WithCancel(context.Background())
	sc := cfg.Registry.Scope("server")
	s := &Server{
		cfg:        cfg,
		suite:      cfg.Suite,
		reg:        cfg.Registry,
		scope:      sc,
		mux:        http.NewServeMux(),
		cache:      newResultCache(cfg.CacheEntries, sc),
		flights:    &singleflight.Group[*cachedResult]{Led: sc.Counter("coalesce/leader_runs"), Waited: sc.Counter("coalesce/coalesced_waits")},
		sem:        newAdmission(int64(cfg.Workers), cfg.QueueDepth, cfg.QueueWait, sc),
		base:       base,
		baseCancel: cancel,
	}
	if cfg.AccessLog != nil {
		s.logger = log.New(cfg.AccessLog, "", 0)
	}
	s.registerRoutes()
	return s, nil
}

// Handler returns the server's mux (API routes plus the telemetry/pprof
// debug surface), for tests and for embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Close releases the server's lifetime context, cancelling any
// still-running computations. Serve calls it on the way out; tests using
// Handler directly should defer it.
func (s *Server) Close() { s.baseCancel() }

// Serve accepts on ln until ctx is cancelled (the daemon wires SIGTERM
// into ctx), then drains gracefully: /readyz flips to 503, the listener
// closes, in-flight requests get up to DrainTimeout to finish, and
// whatever still runs is cancelled through the base context. It returns
// nil on a clean drain and the shutdown error when the drain had to force.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return s.base },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		s.baseCancel()
		return fmt.Errorf("server: %w", err)
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.scope.Counter("drains").Add(1)
	start := time.Now()
	//lint:ignore ctxflow graceful drain must outlive every caller context; it is bounded by DrainTimeout instead
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(shCtx)
	// Whether the drain finished or timed out, the lifetime context goes:
	// on a clean drain nothing is listening to it anymore, and on a
	// timeout it is what aborts the remaining simulations.
	s.baseCancel()
	if err != nil {
		_ = srv.Close()
		<-errCh
		s.scope.Gauge("drain_ms").Set(time.Since(start).Milliseconds())
		return fmt.Errorf("server: drain: %w", err)
	}
	<-errCh // http.ErrServerClosed
	s.scope.Gauge("drain_ms").Set(time.Since(start).Milliseconds())
	return nil
}

// computeFn produces one response body from validated request
// parameters. It must honor ctx: the context ends when the client
// disconnects, the request times out, or the server drains.
type computeFn func(ctx context.Context, r *http.Request) (body []byte, contentType string, err error)

// handleCompute mounts fn at pattern behind the full serving pipeline.
// weight is the admission cost: weightLight for single-benchmark or
// constant-time work, weightHeavy (the whole capacity) for full-suite
// sweeps.
func (s *Server) handleCompute(pattern, route string, weight int64, fn computeFn) {
	s.mux.Handle(pattern, s.instrument(route, s.computeHandler(weight, fn)))
}

// maxBodyBytes caps a POST body so one request cannot buffer unbounded
// input into the cache key and the JSON decoder.
const maxBodyBytes = 1 << 20

// computeHandler runs the cache -> coalesce -> admit -> compute pipeline.
// POST bodies are buffered up front (capped at maxBodyBytes) so the body
// digest joins the cache key — two POSTs with equal path, query, and body
// coalesce and share one cache entry, and the compute fn re-reads the
// body from the buffer.
func (s *Server) computeHandler(weight int64, fn computeFn) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := canonicalKey(r.URL.Path, r.URL.Query())
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
			if err != nil {
				s.writeError(w, r, badRequestf("server: reading request body: %v", err))
				return
			}
			if len(body) > maxBodyBytes {
				s.writeError(w, r, badRequestf("server: request body over %d bytes", maxBodyBytes))
				return
			}
			if len(body) > 0 {
				sum := sha256.Sum256(body)
				key += "#" + hex.EncodeToString(sum[:16])
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		if res, ok := s.cache.get(key); ok {
			s.writeResult(w, r, res, true)
			return
		}
		// The compute context: the client's connection context (which the
		// net/http server cancels on disconnect), additionally cancelled
		// when the server's lifetime ends mid-drain, optionally deadlined.
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(s.base, cancel)
		defer stop()
		if s.cfg.RequestTimeout > 0 {
			var tcancel context.CancelFunc
			ctx, tcancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer tcancel()
		}
		res, err := s.flights.Do(ctx, key, func() (*cachedResult, error) {
			if err := s.sem.Acquire(ctx, weight); err != nil {
				return nil, err
			}
			defer s.sem.Release(weight)
			body, contentType, err := fn(ctx, r)
			if err != nil {
				return nil, err
			}
			res := &cachedResult{body: body, contentType: contentType, etag: etagFor(body)}
			s.cache.put(key, res)
			return res, nil
		})
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		s.writeResult(w, r, res, false)
	})
}

// writeResult sends a materialized response, honoring If-None-Match
// against the strong ETag.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, res *cachedResult, hit bool) {
	h := w.Header()
	h.Set("ETag", res.etag)
	h.Set("Content-Type", res.contentType)
	if hit {
		h.Set("X-Cache", "hit")
	} else {
		h.Set("X-Cache", "miss")
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, res.etag) {
		s.scope.Counter("etag/not_modified").Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	_, _ = w.Write(res.body)
}

// badRequestError marks a parameter-validation failure for a 400.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// badRequestf builds a badRequestError.
func badRequestf(format string, args ...any) error {
	return &badRequestError{err: fmt.Errorf(format, args...)}
}

// writeError maps pipeline failures onto HTTP statuses: overload to
// 429/503 with Retry-After, request deadlines to 504, a drain to 503, a
// vanished client to nothing at all, parameter errors to 400, and the
// remainder to 500.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var ov *overloadError
	var bad *badRequestError
	switch {
	case errors.As(err, &ov):
		secs := int64(ov.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		http.Error(w, ov.Error(), ov.status)
	case errors.As(err, &bad):
		http.Error(w, bad.Error(), http.StatusBadRequest)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "server: request deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// The client hung up; there is no one to answer. The net/http
		// machinery discards whatever we write, so just count it.
		s.scope.Counter("client_disconnects").Add(1)
	case errors.Is(err, context.Canceled) && s.base.Err() != nil:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server: draining", http.StatusServiceUnavailable)
	default:
		s.scope.Counter("internal_errors").Add(1)
		http.Error(w, "server: "+err.Error(), http.StatusInternalServerError)
	}
}
