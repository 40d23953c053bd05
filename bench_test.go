package leakbound_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// regenerates its experiment end-to-end (policy evaluation over cached
// interval distributions) and reports the headline number the paper quotes
// as a custom metric, so `go test -bench=. -benchmem` doubles as a results
// summary.

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"leakbound/internal/experiments"
	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/workload"
	"leakbound/internal/workload/spec"
)

// benchScale keeps full-suite simulation around a few seconds; EXPERIMENTS.md
// records the scale-1.0 numbers.
const benchScale = 0.25

var (
	suiteOnce sync.Once
	suite     *experiments.Suite

	// benchSink defeats dead-code elimination in the evaluation benches.
	benchSink float64
)

// sharedSuite simulates all six benchmarks once per `go test` process,
// through the context-aware API so the cancellation-checking path is what
// every downstream bench measures.
func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.MustNew(experiments.WithScale(benchScale))
		if _, err := suite.AllContext(context.Background()); err != nil {
			panic(err)
		}
	})
	return suite
}

// BenchmarkSuiteAll is the repo's headline end-to-end number: simulate all
// six benchmarks from scratch (generator -> CPU sim -> interval collection)
// at benchScale. The committed BENCH_*.json snapshots track this benchmark;
// the streaming-pipeline speedup claim is made against it.
func BenchmarkSuiteAll(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		s := experiments.MustNew(experiments.WithScale(benchScale))
		if _, err := s.AllContext(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1_ITRSProjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Figure1() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkTable1_InflectionPoints(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
		_, bb, err := power.Default().InflectionPoints()
		if err != nil {
			b.Fatal(err)
		}
		last = bb
	}
	b.ReportMetric(last, "drowsy-sleep-70nm-cycles")
}

func BenchmarkTable2_TechnologyScaling(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var hybrid70 float64
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2Context(context.Background(), s); err != nil {
			b.Fatal(err)
		}
		v, err := experiments.Table2ValueContext(context.Background(), s, "OPT-Hybrid", true, power.Default())
		if err != nil {
			b.Fatal(err)
		}
		hybrid70 = v
	}
	b.ReportMetric(hybrid70*100, "icache-hybrid-70nm-%")
}

func BenchmarkFigure7_HybridVsSleepSweep(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var gapAt10K float64
	for i := 0; i < b.N; i++ {
		sleep, hybrid, err := experiments.Figure7Context(context.Background(), s, true)
		if err != nil {
			b.Fatal(err)
		}
		n := len(sleep.Y) - 1
		gapAt10K = hybrid.Y[n] - sleep.Y[n]
	}
	b.ReportMetric(gapAt10K*100, "icache-gap-at-10K-%")
}

func BenchmarkFigure8_SchemeComparison(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var hybridI float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure8Context(context.Background(), s, true)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		for j, p := range experiments.Figure8Policies() {
			if p.Name() == "OPT-Hybrid" {
				hybridI = avg.Savings[j]
			}
		}
		if _, err := experiments.Figure8Context(context.Background(), s, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hybridI*100, "icache-OPT-Hybrid-%")
}

func BenchmarkFigure9_Prefetchability(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var dTotal float64
	for i := 0; i < b.N; i++ {
		iP, err := experiments.Figure9Context(context.Background(), s, true)
		if err != nil {
			b.Fatal(err)
		}
		dP, err := experiments.Figure9Context(context.Background(), s, false)
		if err != nil {
			b.Fatal(err)
		}
		_ = iP
		dTotal = dP.PrefetchableShare()
	}
	b.ReportMetric(dTotal*100, "dcache-prefetchable-%")
}

func BenchmarkFigure10_EnergyEnvelope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_PrefetchRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table3() == nil {
			b.Fatal("nil table")
		}
	}
}

// Pipeline benches: the end-to-end cost of producing one benchmark's
// interval distributions (simulation + classification + collection).

func BenchmarkPipelineSimulateGzip(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		s := experiments.MustNew(experiments.WithScale(0.05))
		if _, err := s.DataContext(ctx, "gzip"); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 8 benches: Figure8Context on both caches (6 benchmarks x 6
// schemes each) at different worker counts, over a suite simulated before
// the timer starts, so only the evaluation is timed.

func benchFigure8(b *testing.B, workers int) {
	b.Helper()
	s := experiments.MustNew(experiments.WithScale(benchScale), experiments.WithWorkers(workers))
	ctx := context.Background()
	if _, err := s.AllContext(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, iCache := range []bool{true, false} {
			if _, err := experiments.Figure8Context(ctx, s, iCache); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure8Workers1(b *testing.B) { benchFigure8(b, 1) }
func BenchmarkFigure8Workers4(b *testing.B) { benchFigure8(b, 4) }

// benchGeometrySweep measures the geometry sweep: six tasks, one per
// benchmark, each driving the five geometries' machines from one emit,
// run at most the given number at once. The sweep takes its own scale
// and simulates outside the suite's cache, so every iteration
// re-simulates; 0.05 keeps one iteration well under a second.
func benchGeometrySweep(b *testing.B, workers int) {
	gs := experiments.MustNew(experiments.WithWorkers(workers))
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := gs.GeometrySweepContext(ctx, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeometrySweepWorkers1(b *testing.B) { benchGeometrySweep(b, 1) }
func BenchmarkGeometrySweepWorkers4(b *testing.B) { benchGeometrySweep(b, 4) }

// Ablation benches (design choices called out in DESIGN.md):

// BenchmarkAblationHybridVsSleepOnly quantifies what the drowsy mode adds on
// top of an optimally-managed sleep-only cache at the inflection point.
func BenchmarkAblationHybridVsSleepOnly(b *testing.B) {
	s := sharedSuite(b)
	tech := power.Default()
	data, err := s.DataContext(context.Background(), "gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var delta float64
	for i := 0; i < b.N; i++ {
		hy, err := leakage.Evaluate(tech, data.ICache, leakage.OPTHybrid{})
		if err != nil {
			b.Fatal(err)
		}
		sl, err := leakage.Evaluate(tech, data.ICache, leakage.OPTSleep{Theta: 1057})
		if err != nil {
			b.Fatal(err)
		}
		delta = hy.Savings - sl.Savings
	}
	b.ReportMetric(delta*100, "drowsy-adds-%")
}

// BenchmarkAblationDecayTheta sweeps the decay interval, the knob the
// cache-decay literature tunes, showing the cost of not knowing the future.
func BenchmarkAblationDecayTheta(b *testing.B) {
	s := sharedSuite(b)
	tech := power.Default()
	data, err := s.DataContext(context.Background(), "vortex")
	if err != nil {
		b.Fatal(err)
	}
	thetas := []uint64{1057, 5000, 10000, 50000, 100000}
	b.ResetTimer()
	var best float64
	for i := 0; i < b.N; i++ {
		best = 0
		for _, th := range thetas {
			ev, err := leakage.Evaluate(tech, data.DCache, leakage.SleepDecay{Theta: th})
			if err != nil {
				b.Fatal(err)
			}
			if ev.Savings > best {
				best = ev.Savings
			}
		}
	}
	b.ReportMetric(best*100, "best-decay-%")
}

// BenchmarkAblationCounterOverhead isolates the decay counter leakage the
// paper's footnote 2 accounts for.
func BenchmarkAblationCounterOverhead(b *testing.B) {
	s := sharedSuite(b)
	data, err := s.DataContext(context.Background(), "mesa")
	if err != nil {
		b.Fatal(err)
	}
	with := power.Default()
	without := with
	without.CounterLeak = 0
	b.ResetTimer()
	var cost float64
	for i := 0; i < b.N; i++ {
		evWith, err := leakage.Evaluate(with, data.DCache, leakage.SleepDecay{Theta: 10000})
		if err != nil {
			b.Fatal(err)
		}
		evWithout, err := leakage.Evaluate(without, data.DCache, leakage.SleepDecay{Theta: 10000})
		if err != nil {
			b.Fatal(err)
		}
		cost = evWithout.Savings - evWith.Savings
	}
	b.ReportMetric(cost*100, "counter-cost-%")
}

// BenchmarkAblationWorkloadGeneration measures raw generator throughput —
// the substrate must not be the experiment bottleneck.
func BenchmarkAblationWorkloadGeneration(b *testing.B) {
	w := workload.MustNew("gcc", 1)
	b.ResetTimer()
	n := 0
	w.Emit(func(in workload.Instr) bool {
		n++
		return n < b.N
	})
}

// Extension benches (beyond the paper's evaluation):

// BenchmarkExtensionL2Study times the L2 study table, the natural next
// target the paper's conclusion implies: per benchmark, one L2 aggregate
// built and three oracles folded over it.
func BenchmarkExtensionL2Study(b *testing.B) {
	s := sharedSuite(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.L2StudyContext(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionAdaptiveDecay measures the feedback-tuned decay
// baseline (Velusamy et al.) against the oracle gap.
func BenchmarkExtensionAdaptiveDecay(b *testing.B) {
	s := sharedSuite(b)
	data, err := s.DataContext(context.Background(), "vortex")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var savings float64
	for i := 0; i < b.N; i++ {
		ev, err := leakage.EvaluateAdaptiveDecay(power.Default(), data.DAgg)
		if err != nil {
			b.Fatal(err)
		}
		savings = ev.Savings
	}
	b.ReportMetric(savings*100, "vortex-adaptive-decay-%")
}

// BenchmarkExtensionWriteback quantifies the dirty-line write-back cost
// the paper leaves unmodelled.
func BenchmarkExtensionWriteback(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WritebackAblationContext(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionTemperature sweeps junction temperature through the
// analytical leakage model.
func BenchmarkExtensionTemperature(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TemperatureSweepContext(context.Background(), s, "gzip"); err != nil {
			b.Fatal(err)
		}
	}
}

// denseSweepThetas is the 256-point geometric theta ladder the dense-sweep
// benches share — the serving layer's default span at its default density.
func denseSweepThetas() []uint64 {
	const from, to, points = 1057, 103084, 256
	ratio := math.Pow(float64(to)/float64(from), 1/float64(points-1))
	out := make([]uint64, 0, points)
	last := uint64(0)
	for i := 0; i < points; i++ {
		v := uint64(math.Round(float64(from) * math.Pow(ratio, float64(i))))
		if v <= last {
			continue
		}
		out = append(out, v)
		last = v
	}
	return out
}

// BenchmarkSweepDense256Reference answers a 256-point opt-sleep theta sweep
// over every benchmark's I-cache through the reference per-bucket walk —
// the pre-aggregate cost of one dense sweep.
func BenchmarkSweepDense256Reference(b *testing.B) {
	s := sharedSuite(b)
	all, err := s.AllContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	thetas := denseSweepThetas()
	tech := power.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		for _, theta := range thetas {
			pol := leakage.OPTSleep{Theta: theta}
			for _, bd := range all {
				ev, err := leakage.Evaluate(tech, bd.ICache, pol)
				if err != nil {
					b.Fatal(err)
				}
				sink += ev.Savings
			}
		}
		benchSink = sink
	}
}

// BenchmarkSweepDense256Aggregates answers the identical sweep through the
// aggregate kernel the way SweepParamContext and the serving layer's
// 256-point default do: the ladder compiled once per sweep
// (leakage.Compile over every benchmark's cached prefix summaries), then
// one Compiled.Evaluate per benchmark.
func BenchmarkSweepDense256Aggregates(b *testing.B) {
	s := sharedSuite(b)
	all, err := s.AllContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	thetas := denseSweepThetas()
	tech := power.Default()
	pols := make([]leakage.Policy, len(thetas))
	for i, theta := range thetas {
		pols[i] = leakage.OPTSleep{Theta: theta}
	}
	aggs := make([]*interval.Aggregates, len(all))
	for i, bd := range all {
		aggs[i] = bd.IAgg
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		cp, err := leakage.Compile(tech, pols, aggs...)
		if err != nil {
			b.Fatal(err)
		}
		for _, agg := range aggs {
			evs, err := cp.Evaluate(agg)
			if err != nil {
				b.Fatal(err)
			}
			for _, ev := range evs {
				sink += ev.Savings
			}
		}
		benchSink = sink
	}
}

// BenchmarkSweepThetaQuery is a dense sweep end to end, as explore and
// leakaged's sweep endpoint answer one: Suite.SweepThetaContext on the
// 256-point opt-sleep ladder at the suite's default workers, per cache
// side. Unlike BenchmarkSweepDense256Aggregates' hand-built policies, it
// times the registry's resolution of the ladder, the compile and the
// pooled fold together.
func BenchmarkSweepThetaQuery(b *testing.B) {
	s := sharedSuite(b)
	ctx := context.Background()
	thetas := denseSweepThetas()
	tech := power.Default()
	for _, side := range []string{"i", "d"} {
		b.Run(side, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := s.SweepThetaContext(ctx, "opt-sleep", side == "i", tech, thetas)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = pts[len(pts)-1].Savings
			}
		})
	}
}

// BenchmarkCompileDense256 times leakage.Compile alone, the curve layer of
// a dense sweep: each sweep scheme's 256-point theta ladder, built through
// the registry as SweepParamContext builds it, compiled over every
// benchmark's aggregates on each cache side. ns/cell divides by the
// (policy, flags value present) cells a compile covers, whatever number
// of curves it builds for them: flags values that agree on every bit the
// ladder's curves read share one row, so at the paper's nodes a ladder
// builds curves for its edge kinds only.
func BenchmarkCompileDense256(b *testing.B) {
	s := sharedSuite(b)
	all, err := s.AllContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	tech := power.Default()
	thetas := denseSweepThetas()
	for _, scheme := range []string{"opt-sleep", "opt-hybrid", "sleep-decay"} {
		pols := make([]leakage.Policy, len(thetas))
		for i, theta := range thetas {
			spec := leakage.PolicySpec{Scheme: scheme, Params: leakage.Params{"theta": leakage.Uint(theta)}}
			if pols[i], err = leakage.DefaultRegistry().Build(spec, tech); err != nil {
				b.Fatal(err)
			}
		}
		for _, side := range []string{"i", "d"} {
			aggs := make([]*interval.Aggregates, len(all))
			var present [interval.NumFlags]bool
			flags := 0
			for i, bd := range all {
				_, aggs[i] = bd.Side(side == "i")
				for _, cls := range aggs[i].Classes() {
					if !present[cls.Flags] {
						present[cls.Flags] = true
						flags++
					}
				}
			}
			b.Run(scheme+"/"+side, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := leakage.Compile(tech, pols, aggs...); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pols)*flags), "ns/cell")
			})
		}
	}
}

// BenchmarkEvaluateCell is the cell path explore's and leakaged's single
// evaluations take: Suite.EvaluateCellContext, one policy on one
// benchmark's D-cache aggregate through leakage.EvaluateMany, for every
// builtin policy name on every benchmark. It runs at 70nm and 180nm (the
// paper's sleep break-evens at its ends, WBEnergy 0) and at 70nm with
// WBEnergy = 0.5*CD, where the sleep curves read Dirty too. ns/cell
// divides by the cells evaluated.
func BenchmarkEvaluateCell(b *testing.B) {
	s := sharedSuite(b)
	ctx := context.Background()
	names := s.BenchmarkNames()
	wb := power.Default()
	wb.Name += "-wb0.5"
	wb.WBEnergy = 0.5 * wb.CD
	for _, tech := range []power.Technology{power.Default(), mustTechnology(b, "180nm"), wb} {
		var pols []leakage.Policy
		for _, name := range experiments.PolicyNames() {
			pol, err := experiments.ParsePolicy(name, tech)
			if err != nil {
				b.Fatal(err)
			}
			pols = append(pols, pol)
		}
		b.Run(tech.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var sink float64
				for _, bench := range names {
					for _, pol := range pols {
						cell, err := s.EvaluateCellContext(ctx, bench, false, tech, pol)
						if err != nil {
							b.Fatal(err)
						}
						sink += cell.Savings
					}
				}
				benchSink = sink
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(names)*len(pols)), "ns/cell")
		})
	}
}

// mustTechnology returns the built-in node with the given name.
func mustTechnology(b *testing.B, name string) power.Technology {
	b.Helper()
	tech, err := power.TechnologyByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return tech
}

// benchSpecJSON is a representative two-phase workload spec (kernel mix,
// schedule shaping, cold code) for the spec-subsystem benches below.
var benchSpecJSON = []byte(`{
  "version": 1, "name": "bench-spec", "seed": 7,
  "phases": [
    {"name": "serve", "body_instrs": 2000, "iterations": 400, "mem_every": 4,
     "schedule": {"kind": "bursty", "steps": 4, "duty": 0.25},
     "mix": [
       {"kernel": "hot", "weight": 8, "lines": 12},
       {"kernel": "loop", "weight": 3, "bytes": 262144, "stride": 128},
       {"kernel": "chase", "weight": 2, "elems": 4096, "elem_bytes": 64}
     ]},
    {"name": "drain", "body_instrs": 2400, "iterations": 200,
     "cold_code_bytes": 8192,
     "schedule": {"kind": "drain", "steps": 4},
     "mix": [
       {"kernel": "stride", "weight": 2, "bytes": 524288, "block": 16384, "stride": 128},
       {"kernel": "loop", "weight": 1, "bytes": 131072, "store": true}
     ]}
  ]
}`)

// BenchmarkSpecCompile is the declarative front door's fixed cost: parse,
// validate, canonicalize, and lower a two-phase spec onto the workload
// Builder. This runs once per POSTed spec before any simulation, so it
// must stay microseconds, not milliseconds.
func BenchmarkSpecCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp, err := spec.Parse(benchSpecJSON)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sp.Compile(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayPass measures one full Emit pass over a recorded trace —
// the replay side of the record/replay scenario path. Instruction delivery
// from the decoded recording must not be slower than generating the same
// stream from the spec.
func BenchmarkReplayPass(b *testing.B) {
	sp, err := spec.Parse(benchSpecJSON)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := sp.Workload(0.25)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := spec.Record(&buf, wl); err != nil {
		b.Fatal(err)
	}
	rp, err := spec.ReadReplay(bytes.NewReader(buf.Bytes()), "bench-replay")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		rp.Emit(func(in workload.Instr) bool {
			n++
			return true
		})
	}
	b.ReportMetric(float64(rp.Len()), "instrs/pass")
	benchSink = float64(n)
}

// BenchmarkParetoPopulation populates the default Pareto frontier (both
// axes, every registered family, every benchmark) through the aggregate
// kernel.
func BenchmarkParetoPopulation(b *testing.B) {
	s := sharedSuite(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := s.ParetoFrontierContext(ctx, true, power.Default(), nil)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = pts[0].NormalizedLeakage
	}
}
