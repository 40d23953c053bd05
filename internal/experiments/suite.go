// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4 and 5): Table 1 (inflection points), Table 2
// (technology scaling), Table 3 (prefetch scheme definitions), Figure 1
// (ITRS projection), Figure 7 (hybrid vs sleep sweep), Figure 8 (scheme
// comparison per benchmark), Figure 9 (prefetchability), and Figure 10
// (the energy lower envelope).
//
// A Suite simulates each benchmark once — through the Alpha-like hierarchy,
// with prefetch classifiers attached — and caches the flagged interval
// distributions; every experiment then evaluates policies over those
// distributions, exactly as the limit study separates trace collection from
// policy analysis.
//
// Simulation is a single streaming pass on one goroutine: the workload
// generator feeds the CPU model, which feeds the interval collectors and
// prefetch engines through one reused struct-of-arrays batch
// (internal/sim/stream) — no intermediate trace is ever materialized.
// Parallelism lives above that pass, in one indexed fan-out (Suite.forEach)
// on a pool sized by WithWorkers: the benchmarks of AllContext, the
// geometry sweep's simulations, and every evaluation, one task per
// benchmark aggregate answering a policy list compiled once per query
// (evaluateSide: the figures, tables, sweeps and extension studies; and
// Pareto populations) — all run through it. A single cell evaluates
// inline. Each task fills its own slot and callers reduce in index
// order, so every result is the same whatever the worker count: it is a
// pure performance knob. Every operation has one entry point, and it takes
// a ctx: long sweeps return ctx.Err() promptly, flushing partial telemetry
// on the way out.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"leakbound/internal/interval"
	"leakbound/internal/prefetch"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/singleflight"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

// BenchmarkData holds one benchmark's simulation products.
type BenchmarkData struct {
	Name   string
	Result cpu.Result
	// ICache and DCache are the flagged interval distributions for the two
	// L1 caches (the study's subjects).
	ICache *interval.Distribution
	DCache *interval.Distribution
	// L2Cache is the unified L2's distribution — not part of the paper's
	// study, collected for the L2 extension experiment. Its events are
	// L1 misses only, so most of its 32768 frames idle for very long
	// stretches.
	L2Cache *interval.Distribution
	// IEngine and DEngine are the hardware prefetch engines' statistics
	// over the same run: the implementable counterpart of the oracle
	// prefetchability flags (Section 5's premise that next-line + stride
	// capture most misses).
	IEngine prefetch.EngineStats
	DEngine prefetch.EngineStats
	// IAgg and DAgg are the prefix-aggregate summaries of the two L1
	// distributions (interval.Aggregates), built once when the benchmark is
	// produced and shared by every dense sweep and Pareto population. They
	// are read-only after construction and safe for concurrent use.
	IAgg *interval.Aggregates
	DAgg *interval.Aggregates
}

// buildAggregates summarizes the two L1 distributions. The distributions
// arrive compacted (interval.Collector.Finish and ReadDistribution both
// compact), so concurrent walks of the shared BenchmarkData are race-free.
func (d *BenchmarkData) buildAggregates() {
	d.IAgg = interval.NewAggregates(d.ICache)
	d.DAgg = interval.NewAggregates(d.DCache)
}

// Side returns the distribution and its aggregates for one L1 side
// (true = I-cache, false = D-cache).
func (d *BenchmarkData) Side(iCache bool) (*interval.Distribution, *interval.Aggregates) {
	if iCache {
		return d.ICache, d.IAgg
	}
	return d.DCache, d.DAgg
}

// Suite lazily simulates benchmarks at a fixed scale and caches results.
// It is safe for concurrent use; concurrent requests for the same
// benchmark are deduplicated (singleflight), so a benchmark simulates at
// most once per suite no matter how many experiments race for it.
// Construct with New (see options.go).
type Suite struct {
	scale   float64
	workers int
	metrics *telemetry.Registry

	// scenarios extend the benchmark set beyond the built-in six
	// (WithScenarios); both are fixed at construction and read-only after,
	// so lookups need no lock. scenarioIdx indexes them by name.
	scenarios   []Scenario
	scenarioIdx map[string]Scenario

	mu   sync.Mutex
	data map[string]*BenchmarkData
	// adhocOrder tracks insertion order of ad-hoc scenario entries in data
	// (keys carry the "adhoc:" prefix) for bounded LRU-ish eviction; see
	// DataForScenarioContext.
	adhocOrder []string
	flights    singleflight.Group[*BenchmarkData]
	cacheDir   string // optional on-disk cache (see diskcache.go)
}

// DefaultScale is the workload scale used by the experiment binaries: the
// full study length (roughly 5-10M instructions per benchmark, a few
// million simulated cycles — comfortably above the 180nm inflection point
// of 103084 cycles).
const DefaultScale = 1.0

// Scale returns the suite's workload scale.
func (s *Suite) Scale() float64 { return s.scale }

// DataContext returns the simulation products for one benchmark,
// simulating on first use. Concurrent callers for the same benchmark
// share one simulation: the first caller (the leader) simulates while the
// rest wait on its result — or on their own ctx, whichever finishes
// first. If the leader fails, waiters retry rather than inheriting an
// error that may belong to the leader's cancelled context.
func (s *Suite) DataContext(ctx context.Context, name string) (*BenchmarkData, error) {
	return s.dataByKey(ctx, name, false, func(ctx context.Context) (*BenchmarkData, error) {
		return s.produce(ctx, name)
	})
}

// dataByKey is the shared singleflight core behind DataContext (key =
// benchmark name) and DataForScenarioContext (key = "adhoc:" + digest;
// benchmark names can never contain a colon, so the key spaces are
// disjoint). adhoc entries are retained in a small bounded window rather
// than forever — see adhocDataCap.
func (s *Suite) dataByKey(ctx context.Context, key string, adhoc bool, produce func(context.Context) (*BenchmarkData, error)) (*BenchmarkData, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d := s.published(key); d != nil {
		return d, nil
	}
	return s.flights.Do(ctx, key, func() (*BenchmarkData, error) {
		// A leader that finished after the lookup above has published.
		if d := s.published(key); d != nil {
			return d, nil
		}
		d, err := produce(ctx)
		if err != nil {
			return nil, err
		}
		s.publish(key, adhoc, d)
		return d, nil
	})
}

// published returns the data stored under key, or nil.
func (s *Suite) published(key string) *BenchmarkData {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[key]
}

// publish stores a leader's result before its flight ends, so a caller
// that leads next finds it. An ad-hoc entry joins the bounded window and
// evicts the oldest beyond adhocDataCap.
func (s *Suite) publish(key string, adhoc bool, d *BenchmarkData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if adhoc {
		s.adhocOrder = append(s.adhocOrder, key)
		if len(s.adhocOrder) > adhocDataCap {
			delete(s.data, s.adhocOrder[0])
			s.adhocOrder = s.adhocOrder[1:]
		}
	}
	s.data[key] = d
}

// produce loads one benchmark from the disk cache or simulates it; called
// only by a singleflight leader, so it never runs twice concurrently for
// the same name. The name is resolved against the registered scenarios
// first, then the built-in workload set.
func (s *Suite) produce(ctx context.Context, name string) (*BenchmarkData, error) {
	if sc, ok := s.scenarioIdx[name]; ok {
		return s.produceWorkload(ctx, name, s.scenarioCacheKey(name, sc.ScenarioDigest()), true,
			func() (workload.Workload, error) { return sc.Workload(s.scale) })
	}
	return s.produceWorkload(ctx, name, s.cacheKey(name), true,
		func() (workload.Workload, error) { return workload.New(name, s.scale) })
}

// produceWorkload runs the disk-cache-or-simulate pipeline for one
// resolved workload. key is the disk-cache key; perName gates the
// per-benchmark telemetry gauges — registered names are a closed set
// fixed at construction, but ad-hoc scenarios (one per POSTed spec) are
// not, so they only feed the aggregate counters.
func (s *Suite) produceWorkload(ctx context.Context, name, key string, perName bool, mk func() (workload.Workload, error)) (*BenchmarkData, error) {
	if d := s.loadCached(key, name); d != nil {
		d.buildAggregates()
		return d, nil
	}
	//lint:ignore detflow wall clock feeds the sim_ms/sim_ns telemetry only, never the simulation products
	start := time.Now()
	sc := s.metrics.Scope("suite")
	w, err := mk()
	if err != nil {
		return nil, err
	}
	d, err := simulate(ctx, name, w)
	//lint:ignore detflow wall clock feeds the sim_ms/sim_ns telemetry only, never the simulation products
	elapsed := time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			// Partial-telemetry flush on cancellation: the abandoned work
			// still shows up in the snapshot.
			sc.Counter("sims_cancelled").Add(1)
			if perName {
				//lint:ignore telemetryscope registered benchmark names are a closed set (BenchmarkNames(), fixed at construction), so cardinality is bounded and snapshots stay deterministic
				sc.Gauge("cancelled_after_ms/" + name).Set(elapsed.Milliseconds())
			}
		}
		return nil, err
	}
	sc.Counter("fresh_sims").Add(1)
	if perName {
		//lint:ignore telemetryscope registered benchmark names are a closed set (BenchmarkNames(), fixed at construction), so cardinality is bounded and snapshots stay deterministic
		sc.Gauge("sim_ms/" + name).Set(elapsed.Milliseconds())
		//lint:ignore telemetryscope registered benchmark names are a closed set (BenchmarkNames(), fixed at construction), so cardinality is bounded and snapshots stay deterministic
		sc.Gauge("events/" + name).Set(int64(d.Result.L1I.Accesses + d.Result.L1D.Accesses + d.Result.L2.Accesses))
	} else {
		sc.Counter("adhoc_sims").Add(1)
	}
	sc.Histogram("sim_ns").Record(uint64(elapsed.Nanoseconds()))
	s.storeCached(key, d)
	d.buildAggregates()
	return d, nil
}

// AllContext simulates every benchmark in parallel through forEach and
// returns them in presentation order. Cancelling ctx aborts in-flight
// simulations at their next cancellation check, skips queued ones, and
// returns ctx.Err().
func (s *Suite) AllContext(ctx context.Context) ([]*BenchmarkData, error) {
	names := s.BenchmarkNames()
	out := make([]*BenchmarkData, len(names))
	err := s.forEach(ctx, len(names), func(i int) error {
		d, err := s.DataContext(ctx, names[i])
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", names[i], err)
		}
		out[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEach is the suite's one parallel primitive: it runs fn(0..n-1) on a
// bounded, metric-instrumented pool of WithWorkers workers and returns once
// every task has finished. Each task writes only its own slot i and the
// caller reduces in index order, so results (floating-point sums included)
// are bit-identical at any worker count. Cancelling ctx skips tasks not
// yet started and returns ctx.Err(); otherwise the first task error.
func (s *Suite) forEach(ctx context.Context, n int, fn func(i int) error) error {
	pool := telemetry.NewPoolIn(s.metrics, s.poolWorkers())
	for i := 0; i < n; i++ {
		pool.Go(func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fn(i)
		})
	}
	err := pool.Wait()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// simulate runs one resolved workload through the paper's machine
// configuration and collects flagged interval distributions for all three
// caches in a single streaming pass on the calling goroutine: the CPU
// model hands each full batch straight to the collectors and engines, so
// the whole pipeline shares one batch buffer, the per-event cost is a
// handful of column reads, and no intermediate trace is ever materialized.
func simulate(ctx context.Context, name string, w workload.Workload) (*BenchmarkData, error) {
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		return nil, err
	}
	iClass, err := prefetch.NewClassifier(prefetch.ForICache())
	if err != nil {
		return nil, err
	}
	dClass, err := prefetch.NewClassifier(prefetch.ForDCache())
	if err != nil {
		return nil, err
	}
	iEng, err := prefetch.NewEngine(prefetch.DefaultEngineConfig(prefetch.ForICache()))
	if err != nil {
		return nil, err
	}
	dEng, err := prefetch.NewEngine(prefetch.DefaultEngineConfig(prefetch.ForDCache()))
	if err != nil {
		return nil, err
	}
	iCol, err := interval.NewCollector(trace.L1I, uint32(hier.L1I().Config().NumLines()), iClass)
	if err != nil {
		return nil, err
	}
	dCol, err := interval.NewCollector(trace.L1D, uint32(hier.L1D().Config().NumLines()), dClass)
	if err != nil {
		return nil, err
	}
	l2Col, err := interval.NewCollector(trace.L2, uint32(hier.L2().Config().NumLines()), nil)
	if err != nil {
		return nil, err
	}
	// The engines run right behind the classifiers on the same event
	// stream, so they can read the classifiers' stride tables instead of
	// maintaining bit-identical copies.
	if err := iEng.ShareStrides(iClass); err != nil {
		return nil, err
	}
	if err := dEng.ShareStrides(dClass); err != nil {
		return nil, err
	}
	// One fused pass per batch: each event's columns are loaded once and
	// dispatched to its cache's collector and engine together, instead of
	// five separate filtered scans over the same batch.
	res, err := cpu.RunStreamContext(ctx, w, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			cycle, lineAddr, pc := b.Cycles[i], b.LineAddrs[i], b.PCs[i]
			frame, kind, miss := b.Frames[i], b.Kinds[i], b.Misses[i]
			switch b.Caches[i] {
			case trace.L1I:
				if err := iCol.AddCols(cycle, lineAddr, pc, frame, trace.L1I, kind, miss); err != nil {
					return err
				}
				iEng.AccessCols(cycle, lineAddr, pc, kind, miss)
			case trace.L1D:
				if err := dCol.AddCols(cycle, lineAddr, pc, frame, trace.L1D, kind, miss); err != nil {
					return err
				}
				dEng.AccessCols(cycle, lineAddr, pc, kind, miss)
			case trace.L2:
				if err := l2Col.AddCols(cycle, lineAddr, pc, frame, trace.L2, kind, miss); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return finishData(name, res, iCol, dCol, l2Col, iEng, dEng)
}

// finishData closes the three collectors and both engines into a
// BenchmarkData.
func finishData(name string, res cpu.Result, iCol, dCol, l2Col *interval.Collector, iEng, dEng *prefetch.Engine) (*BenchmarkData, error) {
	iDist, err := iCol.Finish(res.Cycles)
	if err != nil {
		return nil, err
	}
	dDist, err := dCol.Finish(res.Cycles)
	if err != nil {
		return nil, err
	}
	l2Dist, err := l2Col.Finish(res.Cycles)
	if err != nil {
		return nil, err
	}
	return &BenchmarkData{
		Name: name, Result: res,
		ICache: iDist, DCache: dDist, L2Cache: l2Dist,
		IEngine: iEng.Finish(), DEngine: dEng.Finish(),
	}, nil
}

// SortedNames returns the benchmark names the suite has simulated so far;
// primarily for diagnostics.
func (s *Suite) SortedNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.data))
	for n := range s.data {
		// Ad-hoc scenario entries are keyed "adhoc:<digest>", not by
		// benchmark name; they are a cache, not part of the suite's set.
		if !strings.Contains(n, ":") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
