package experiments

// The context-aware options API. experiments.New(opts...) is the only
// constructor; the deprecated NewSuite/MustNewSuite scale-only wrappers
// are gone now that every call site uses options. The one parallelism
// knob, WithWorkers, sizes the pool every simulation and every
// per-benchmark evaluation task runs on.

import (
	"errors"
	"fmt"
	"runtime"

	"leakbound/internal/telemetry"
)

// Sentinel errors for option validation; match with errors.Is.
var (
	// ErrNonPositiveScale reports a workload scale <= 0.
	ErrNonPositiveScale = errors.New("experiments: non-positive scale")

	// ErrBadOption reports an invalid functional-option argument.
	ErrBadOption = errors.New("experiments: bad option")

	// ErrUnknownScheme reports a Table 2 scheme name outside
	// {OPT-Drowsy, OPT-Sleep, OPT-Hybrid}.
	ErrUnknownScheme = errors.New("experiments: unknown Table 2 scheme")
)

// Option configures a Suite at construction.
type Option func(*Suite) error

// WithScale sets the workload scale (1.0 = the full study length; smaller
// for tests). The default is DefaultScale.
func WithScale(scale float64) Option {
	return func(s *Suite) error {
		if scale <= 0 {
			return fmt.Errorf("%w: %g", ErrNonPositiveScale, scale)
		}
		s.scale = scale
		return nil
	}
}

// WithCacheDir enables on-disk caching of per-benchmark simulation
// products under dir; the empty string disables caching (the default).
func WithCacheDir(dir string) Option {
	return func(s *Suite) error {
		s.cacheDir = dir
		return nil
	}
}

// WithMetrics directs the suite's telemetry (simulation timings, sweep
// counters, disk-cache hits, pool utilization) into reg instead of the
// process-wide default registry. Useful for tests and for isolating
// concurrent sweeps.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(s *Suite) error {
		if reg == nil {
			return fmt.Errorf("%w: nil telemetry registry", ErrBadOption)
		}
		s.metrics = reg
		return nil
	}
}

// WithWorkers bounds the suite's parallelism: each fan-out (forEach) — the
// benchmarks, the geometry sweep, every evaluation's per-benchmark tasks —
// runs on a pool of n workers, one simulation per goroutine, and no result
// depends on n. n <= 0 (the default) means GOMAXPROCS, resolved at each
// use.
func WithWorkers(n int) Option {
	return func(s *Suite) error {
		s.workers = n
		return nil
	}
}

// New creates a Suite from functional options. With no options the suite
// runs at DefaultScale, with no disk cache, reporting into the default
// telemetry registry, parallelized over GOMAXPROCS workers.
func New(opts ...Option) (*Suite, error) {
	s := &Suite{
		scale:   DefaultScale,
		metrics: telemetry.Default(),
		data:    make(map[string]*BenchmarkData),
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("%w: nil option", ErrBadOption)
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNew is New that panics on bad options.
func MustNew(opts ...Option) *Suite {
	s, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// poolWorkers resolves the configured worker bound.
func (s *Suite) poolWorkers() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
}
