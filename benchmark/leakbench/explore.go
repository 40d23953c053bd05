package main

// The explore workload: one in-process client in a closed loop of seeded
// queries over an experiments.Suite simulated during set-up — parameter
// sweeps, Pareto frontiers and single-cell evaluations, the scripted path
// a researcher takes after the simulation. It bypasses the simulator and
// loads the leakage aggregate kernel and the suite's grid and pool.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

const (
	exploreScale  = 1.0
	exploreWarmup = 150 // untimed queries before the measured loop
	// exploreVerified is how many queries, a seeded sample, are checked
	// against the reference walk: it costs tens of milliseconds a query,
	// so checking all of them would outlast the measured window.
	exploreVerified = 256
	sweepPoints     = 256
	sweepTop        = 103084 // the 180nm inflection point, the top of Figure 7's span
	// exploreTickEvery spaces the host-pace probes in the measured loop.
	exploreTickEvery = 250 * time.Millisecond
)

// exploreTraffic are the per-layer metrics only explore traffic moves.
var exploreTraffic = []string{
	"experiments.sweep_ms_p50", "experiments.pareto_ms_p50", "experiments.eval_ms_p50",
	"experiments.sweep_overhead_share", "explore.mallocs_per_query", "explore.p99_ms",
}

// exploreQuery is one seeded query and the one point of its answer that
// is checked afterwards.
type exploreQuery struct {
	kind   string // "sweep", "pareto" or "eval"
	sweep  sweepQuery
	bench  string
	policy string
	check  int        // index of the checked point
	got    [3]float64 // the checked point's values
}

// exploreMix draws the query mix: 60% sweeps, 20% Pareto frontiers, 20%
// cell evaluations, over random sides and technologies.
type exploreMix struct {
	r     *rand.Rand
	kinds blockMix
	techs []power.Technology
}

func newExploreMix(seed uint64) *exploreMix {
	r := newRand(seed, "explore")
	return &exploreMix{r: r, kinds: blockMix{r: r, weights: []int{6, 2, 2}}, techs: power.Technologies()}
}

func (m *exploreMix) next() exploreQuery {
	r := m.r
	q := exploreQuery{}
	q.sweep.iCache = r.IntN(2) == 0
	q.sweep.tech = m.techs[r.IntN(len(m.techs))]
	switch m.kinds.next() {
	case 0:
		q.kind = "sweep"
		q.sweep.scheme = []string{"opt-sleep", "opt-hybrid", "sleep-decay"}[r.IntN(3)]
		q.sweep.thetas = geometricLadder(500+r.Uint64N(2001), sweepTop, sweepPoints)
		q.check = r.IntN(len(q.sweep.thetas))
	case 1:
		q.kind = "pareto"
		q.check = r.IntN(len(experiments.DefaultParetoSpecs()))
	default:
		q.kind = "eval"
		names := workload.Names()
		pols := experiments.PolicyNames()
		q.bench = names[r.IntN(len(names))]
		q.policy = pols[r.IntN(len(pols))]
	}
	return q
}

// do runs the query against the suite and keeps its checked point.
func (q *exploreQuery) do(e *env, s *experiments.Suite) error {
	switch q.kind {
	case "sweep":
		pts, err := s.SweepThetaContext(e.ctx, q.sweep.scheme, q.sweep.iCache, q.sweep.tech, q.sweep.thetas)
		if err != nil {
			return err
		}
		q.got[0] = pts[q.check].Savings
	case "pareto":
		pts, err := s.ParetoFrontierContext(e.ctx, q.sweep.iCache, q.sweep.tech, nil)
		if err != nil {
			return err
		}
		q.got[0], q.got[1] = pts[q.check].NormalizedLeakage, pts[q.check].InducedMissRate
	case "eval":
		pol, err := experiments.ParsePolicy(q.policy, q.sweep.tech)
		if err != nil {
			return err
		}
		ev, err := s.EvaluateCellContext(e.ctx, q.bench, q.sweep.iCache, q.sweep.tech, pol)
		if err != nil {
			return err
		}
		q.got = [3]float64{ev.Energy, ev.Baseline, ev.Savings}
	}
	return nil
}

// verify recomputes the checked point with the reference distribution
// walk (leakage.Evaluate, no aggregates) and compares within 1e-9.
func (q *exploreQuery) verify(all []*experiments.BenchmarkData) error {
	tech, iCache := q.sweep.tech, q.sweep.iCache
	switch q.kind {
	case "sweep":
		pols, err := sweepQuery{q.sweep.scheme, iCache, tech, q.sweep.thetas[q.check : q.check+1]}.policies()
		if err != nil {
			return err
		}
		var sum float64
		for _, bd := range all {
			dist, _ := bd.Side(iCache)
			ev, err := leakage.Evaluate(tech, dist, pols[0])
			if err != nil {
				return err
			}
			sum += ev.Savings
		}
		return near("savings", q.got[0], sum/float64(len(all)))
	case "pareto":
		pol, err := experiments.BuildPolicy(experiments.DefaultParetoSpecs()[q.check], tech)
		if err != nil {
			return err
		}
		var leak, miss float64
		for _, bd := range all {
			dist, _ := bd.Side(iCache)
			ev, err := leakage.Evaluate(tech, dist, pol)
			if err != nil {
				return err
			}
			rate, err := leakage.InducedMissRate(tech, dist, pol)
			if err != nil {
				return err
			}
			leak += ev.Energy / ev.Baseline
			miss += rate
		}
		n := float64(len(all))
		if err := near("normalized leakage", q.got[0], leak/n); err != nil {
			return err
		}
		return near("induced miss rate", q.got[1], miss/n)
	default:
		pol, err := experiments.ParsePolicy(q.policy, tech)
		if err != nil {
			return err
		}
		for _, bd := range all {
			if bd.Name != q.bench {
				continue
			}
			dist, _ := bd.Side(iCache)
			ev, err := leakage.Evaluate(tech, dist, pol)
			if err != nil {
				return err
			}
			for i, want := range [3]float64{ev.Energy, ev.Baseline, ev.Savings} {
				if err := near("evaluation", q.got[i], want); err != nil {
					return err
				}
			}
			return nil
		}
		return fmt.Errorf("benchmark %q not in the suite", q.bench)
	}
}

// verifyExplore checks one point of each query, on GOMAXPROCS goroutines.
func verifyExplore(r *result, queries []exploreQuery, all []*experiments.BenchmarkData) {
	jobs := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := queries[i].verify(all); err != nil {
					mu.Lock()
					r.markWrong("%s query: %v", queries[i].kind, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range queries {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// near compares within a relative 1e-9 (absolute near zero).
func near(what string, got, want float64) error {
	if math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)) {
		return nil
	}
	return fmt.Errorf("%s %v, reference walk %v", what, got, want)
}

func runExplore(e *env) (*result, error) {
	r := newResult()
	scale := exploreScale * e.opt.scale

	// Set-up: a fresh suite simulating every benchmark with the default
	// options (GOMAXPROCS workers), as a user's script would.
	var setups []float64
	var suite *experiments.Suite
	var reg *telemetry.Registry
	for i := 0; i < setupReps; i++ {
		sp := e.tr.start(nil, "explore.setup", "harness")
		t0 := time.Now()
		reg = telemetry.NewRegistry()
		s, err := experiments.New(experiments.WithScale(scale), experiments.WithMetrics(reg))
		if err != nil {
			return nil, err
		}
		if _, err := s.AllContext(e.ctx); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp.end(nil)
		suite = s
	}
	r.e2e["setup_s"] = median(setups)
	r.samples["setup_s"] = len(setups)
	all, err := suite.AllContext(e.ctx)
	if err != nil {
		return nil, err
	}

	mix := newExploreMix(e.opt.seed)
	for i := 0; i < exploreWarmup; i++ {
		q := mix.next()
		if err := q.do(e, suite); err != nil {
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
	}
	// Drop the earlier set-ups' suites so the loop's memory is this
	// suite's alone.
	debug.FreeOSMemory()

	// The queries checked afterwards are a seeded reservoir sample, so the
	// loop keeps a fixed number of them whatever its query rate; of the
	// rest only the latencies stay.
	checked := newReservoir[exploreQuery](newRand(e.opt.seed, "explore-verify"), exploreVerified)
	var lat []float64
	byKind := map[string][]float64{}
	var sweeps []sweepQuery // traced: the first sweeps, for the kernel replay
	var sweepCPU time.Duration
	var peakRSS float64
	var ms0, ms1 runtime.MemStats
	snap0 := reg.Snapshot()
	runtime.ReadMemStats(&ms0)
	// The host-pace probes run on the harness's CPU between queries; their
	// wall and CPU time are taken out of the loop's.
	var probeWall, probeCPU time.Duration
	cpu0 := selfCPU()
	start := time.Now()
	lastTick := start
	for time.Since(start) < e.opt.window() {
		if time.Since(lastTick) >= exploreTickEvery {
			t, c := time.Now(), selfCPU()
			e.pace.tick()
			probeCPU += selfCPU() - c
			lastTick = time.Now()
			probeWall += lastTick.Sub(t)
		}
		if r.attempted%64 == 0 {
			if rss, err := procStatusMB(0, "VmRSS"); err == nil {
				peakRSS = max(peakRSS, rss)
			}
		}
		q := mix.next()
		root := e.tr.start(nil, "explore.query", "harness")
		sp := e.tr.start(root, "experiments."+q.kind, "experiments")
		var c0 time.Duration
		if e.tr != nil {
			c0 = selfCPU()
		}
		t0 := time.Now()
		err := q.do(e, suite)
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		sp.end(nil)
		root.end(map[string]any{"kind": q.kind})
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		lat = append(lat, ms)
		byKind[q.kind] = append(byKind[q.kind], ms)
		checked.add(q)
		if e.tr != nil && q.kind == "sweep" && len(sweeps) < kernelSweeps {
			sweeps = append(sweeps, q.sweep)
			sweepCPU += selfCPU() - c0
		}
	}
	elapsed := time.Since(start) - probeWall
	cpu := selfCPU() - cpu0 - probeCPU
	runtime.ReadMemStats(&ms1)
	snap1 := reg.Snapshot()

	verifyExplore(r, checked.items, all)

	n := float64(r.attempted)
	r.e2e["latency_p50_ms"] = median(lat)
	r.samples["latency_p50_ms"] = len(lat)
	r.e2e["ops_per_s"] = n / elapsed.Seconds()
	r.e2e["cpu_ms_per_op"] = float64(cpu) / float64(time.Millisecond) / n
	r.e2e["peak_rss_mb"] = peakRSS
	if !e.opt.trace {
		return r, nil
	}

	r.layer["experiments.sweep_ms_p50"] = median(byKind["sweep"])
	r.layer["experiments.pareto_ms_p50"] = median(byKind["pareto"])
	r.layer["experiments.eval_ms_p50"] = median(byKind["eval"])
	r.tail(e, "explore.p99_ms", lat, 0.99)
	r.layer["explore.mallocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	r.layer["experiments.sim_ms_total"] = 0 // explore simulates only during set-up
	r.layer["experiments.pool_queue_wait_ms"] = histDelta(snap0, snap1, "pool", "queue_wait_ns") / 1e6 / n
	r.notExercised(serveTraffic...)

	// The kernel under the sweeps: replay the first of them directly. The
	// suite spreads a sweep over its worker pool, so the kernel's
	// single-goroutine time compares with the queries' CPU time, not their
	// latency.
	k, err := kernelProbe(e.ctx, e.tr, suite, sweeps)
	if err != nil {
		return nil, err
	}
	k.report(r)
	r.layer["experiments.sweep_overhead_share"] = 1 - ratio(float64(k.elapsed), float64(sweepCPU))
	if _, err := traceLayers(e, r, scale); err != nil {
		return nil, err
	}
	return r, nil
}
