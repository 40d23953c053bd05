// Command leakaged serves the experiment suite over HTTP/JSON: the
// paper's figures and tables, inflection points, per-(technology x policy
// x cache) evaluations, and parameterized sweep queries, behind an LRU
// result cache, request coalescing, and bounded admission control.
//
// Usage:
//
//	leakaged [-addr :8080] [-scale f] [-workers n] [-cache dir]
//	         [-specs dir] [-cache-entries n] [-queue-depth n]
//	         [-queue-wait d] [-request-timeout d] [-drain-timeout d]
//
// The daemon prints "leakaged: listening on ADDR" once the listener is
// bound (use -addr 127.0.0.1:0 for an ephemeral port), then serves until
// SIGINT/SIGTERM, at which point it drains gracefully: the listener
// closes, /readyz flips to 503, in-flight requests get -drain-timeout to
// finish, and whatever still runs is cancelled. A clean drain exits 0.
//
// -workers sizes the suite's worker pool (benchmark simulations and the
// per-benchmark evaluation tasks) and the number of heavy requests
// admission control runs at once (0 = GOMAXPROCS); each benchmark
// simulates on one goroutine, and a single served cell evaluates on its
// request's goroutine.
//
// Endpoints: /healthz, /readyz, /api/v1/{benchmarks,figures/{1,7,8,9,10},
// tables/{1,2,3},inflections,policies,eval,sweep,pareto}, plus the
// telemetry surface (/metrics, /metrics.json, /debug/vars,
// /debug/pprof/*) on the same mux. /api/v1/policies lists the registered
// schemes with their parameter schemas; eval and sweep accept POST bodies
// with structured policy specs ({"scheme": ..., "params": {...}}) and
// inline workload specs ({"spec": {...}}, evaluated ad hoc and cached by
// digest) in addition to the GET query spellings; -specs serves a
// directory of workload specs as extra benchmarks; /api/v1/pareto
// evaluates a policy
// population on both (normalized leakage, induced miss rate) axes and
// marks the non-dominated frontier. See the README's "Serving" section
// for parameters and semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/server"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload/spec"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; :0 for ephemeral)")
	scale := flag.Float64("scale", experiments.DefaultScale, "workload scale (1.0 = full study length)")
	workers := flag.Int("workers", 0, "parallelism bound shared by the suite's worker pool (simulations and per-benchmark evaluations) and admission control (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "directory for on-disk simulation caching (empty = off)")
	specsDir := flag.String("specs", "", "directory of workload specs (.json) and recordings (.trc) served as extra benchmarks")
	cacheEntries := flag.Int("cache-entries", server.DefaultCacheEntries, "LRU result-cache bound (negative disables result caching)")
	queueDepth := flag.Int("queue-depth", server.DefaultQueueDepth, "max requests waiting for admission before 429")
	queueWait := flag.Duration("queue-wait", server.DefaultQueueWait, "max time one request waits for admission before 503")
	requestTimeout := flag.Duration("request-timeout", 5*time.Minute, "per-request wall-time cap (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", server.DefaultDrainTimeout, "graceful-drain bound on shutdown")
	quiet := flag.Bool("quiet", false, "suppress the access log")
	obs := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	stop, err := obs.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakaged:", err)
		os.Exit(1)
	}
	err = run(ctx, appConfig{
		addr:           *addr,
		scale:          *scale,
		workers:        *workers,
		cacheDir:       *cacheDir,
		specsDir:       *specsDir,
		cacheEntries:   *cacheEntries,
		queueDepth:     *queueDepth,
		queueWait:      *queueWait,
		requestTimeout: *requestTimeout,
		drainTimeout:   *drainTimeout,
		quiet:          *quiet,
	}, nil)
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakaged:", err)
		os.Exit(1)
	}
}

// appConfig carries the parsed flags into run.
type appConfig struct {
	addr           string
	scale          float64
	workers        int
	cacheDir       string
	specsDir       string
	cacheEntries   int
	queueDepth     int
	queueWait      time.Duration
	requestTimeout time.Duration
	drainTimeout   time.Duration
	quiet          bool
}

// run builds the suite and server, binds the listener, announces the
// bound address (onReady, when non-nil, also receives it — tests use
// this), and serves until ctx is cancelled. A clean drain returns nil.
func run(ctx context.Context, cfg appConfig, onReady func(net.Addr)) error {
	opts := []experiments.Option{
		experiments.WithScale(cfg.scale),
		experiments.WithWorkers(cfg.workers),
		experiments.WithCacheDir(cfg.cacheDir),
	}
	if cfg.specsDir != "" {
		srcs, err := spec.LoadDir(cfg.specsDir)
		if err != nil {
			return err
		}
		scs := make([]experiments.Scenario, len(srcs))
		for i, src := range srcs {
			scs[i] = src
		}
		opts = append(opts, experiments.WithScenarios(scs...))
	}
	suite, err := experiments.New(opts...)
	if err != nil {
		return err
	}
	var accessLog *os.File
	if !cfg.quiet {
		accessLog = os.Stderr
	}
	srv, err := server.New(server.Config{
		Suite:          suite,
		Workers:        cfg.workers,
		CacheEntries:   cfg.cacheEntries,
		QueueDepth:     cfg.queueDepth,
		QueueWait:      cfg.queueWait,
		RequestTimeout: cfg.requestTimeout,
		DrainTimeout:   cfg.drainTimeout,
		AccessLog:      accessLog,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("leakaged: listening on %s\n", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr())
	}
	return srv.Serve(ctx, ln)
}
