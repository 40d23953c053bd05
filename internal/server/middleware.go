package server

// Request instrumentation: every route is wrapped in the telemetry HTTP
// middleware (per-route counters, status classes, log2 latency
// histograms) and, when configured, a structured access log — one
// logfmt-style line per completed request.

import (
	"errors"
	"net/http"
	"runtime/debug"
	"time"

	"leakbound/internal/telemetry"
)

// logRecorder captures status and size for the access log.
type logRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *logRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *logRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// instrument wraps h in the standard middleware stack for a route.
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	h = s.recoverPanics(h)
	h = s.accessLog(h)
	return telemetry.HTTPMetrics(s.reg, "http", route, h)
}

// recoverPanics turns a handler panic into a counted 500 (server scope
// "panics"), so the request is answered and the access log and status
// metrics see it. http.ErrAbortHandler keeps its meaning: the handler
// chose to abort the response, and net/http handles it.
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(v)
			}
			s.scope.Counter("panics").Add(1)
			if s.logger != nil {
				s.logger.Printf("panic serving %s: %v\n%s", r.URL.RequestURI(), v, debug.Stack())
			}
			http.Error(w, "server: internal error", http.StatusInternalServerError)
		}()
		h.ServeHTTP(w, r)
	})
}

// accessLog emits one structured line per request when a log sink is
// configured.
func (s *Server) accessLog(h http.Handler) http.Handler {
	if s.logger == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &logRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.logger.Printf("ts=%s method=%s path=%q status=%d bytes=%d dur_ms=%d remote=%q",
			start.UTC().Format(time.RFC3339Nano), r.Method, r.URL.RequestURI(),
			rec.status, rec.bytes, time.Since(start).Milliseconds(), r.RemoteAddr)
	})
}
