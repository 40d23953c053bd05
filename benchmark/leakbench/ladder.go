package main

// The simulator stage ladder. It rebuilds the suite's single-goroutine
// simulation pipeline from the public functions of each layer, one stage
// at a time, over the same benchmarks a workload simulates:
//
//	emit        workload generator alone
//	+cpu        the timing core (and the cache lookups it makes), empty sink
//	+collect    interval collectors, no prefetch classifier
//	+prefetch   classifiers and engines: the suite's full inline wiring
//	aggregate   prefix aggregates per side
//	store       the disk cache's distribution codec
//
// Each pass re-runs the stream from the start, so a stage's self time is
// its pass minus the previous pass. The passes are checked against
// Suite.DataContext at WithWorkers(1) — digest-equal distributions and
// identical simulation statistics — and the unexplained remainder is
// reported as ladder.residual_share.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/interval"
	"leakbound/internal/prefetch"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

// ladderStats accumulates the ladder over a benchmark set.
type ladderStats struct {
	emit, cpu, collect, prefetch, cachePass time.Duration
	agg                                     [3]time.Duration
	aggAlloc                                [3]uint64
	store, inline, load                     time.Duration
	inlineGzip, ringGzip, geometry          time.Duration

	instrs, events, l1Events, accesses, intervals uint64
	cycles                                        uint64
	l1i, l1d, l2                                  cache.Stats
	engines                                       prefetch.EngineStats
}

// sides names the three collected caches in aggregate order.
var sides = [3]struct {
	id   trace.CacheID
	name string
}{{trace.L1I, "i"}, {trace.L1D, "d"}, {trace.L2, "l2"}}

// runLadder measures every stage over the builtin benchmarks at scale,
// checks the result against the suite, and returns the reference suite
// (its cache directory populated under work) for the kernel probe.
func runLadder(ctx context.Context, tr *tracer, work string, scale float64) (*ladderStats, *experiments.Suite, error) {
	root := tr.start(nil, "ladder", "harness")
	defer root.end(map[string]any{"scale": scale})
	dir := filepath.Join(work, "ladder-cache")
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	ref, err := experiments.New(experiments.WithScale(scale), experiments.WithWorkers(1),
		experiments.WithCacheDir(dir), experiments.WithMetrics(telemetry.NewRegistry()))
	if err != nil {
		return nil, nil, err
	}
	st := &ladderStats{}
	for _, name := range workload.Names() {
		if err := ladderBenchmark(ctx, tr, root, ref, dir, name, scale, st); err != nil {
			return nil, nil, fmt.Errorf("ladder %s: %w", name, err)
		}
	}

	// A fresh suite over the populated directory: the disk cache's load
	// path, which a warm paper run and every cached set-up take.
	loaded, err := experiments.New(experiments.WithScale(scale), experiments.WithWorkers(1),
		experiments.WithCacheDir(dir), experiments.WithMetrics(telemetry.NewRegistry()))
	if err != nil {
		return nil, nil, err
	}
	sp := tr.start(root, "experiments.diskcache_load", "experiments")
	t0 := time.Now()
	if _, err := loaded.AllContext(ctx); err != nil {
		return nil, nil, err
	}
	st.load = time.Since(t0)
	sp.end(nil)

	// The sharded ring path, which every default multi-core run takes.
	ring, err := experiments.New(experiments.WithScale(scale), experiments.WithWorkers(max(2, runtime.NumCPU())),
		experiments.WithMetrics(telemetry.NewRegistry()))
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start(root, "experiments.simulate_ring", "experiments")
	t0 = time.Now()
	if _, err := ring.DataContext(ctx, "gzip"); err != nil {
		return nil, nil, err
	}
	st.ringGzip = time.Since(t0)
	sp.end(map[string]any{"benchmark": "gzip", "workers": max(2, runtime.NumCPU())})

	// The geometry sweep re-simulates every configuration; the paper run
	// caps its scale at 0.25 the same way.
	sp = tr.start(root, "experiments.geometry_sweep", "experiments")
	t0 = time.Now()
	if _, err := experiments.GeometrySweepContext(ctx, min(scale, 0.25)); err != nil {
		return nil, nil, err
	}
	st.geometry = time.Since(t0)
	sp.end(nil)
	return st, ref, nil
}

// ladderBenchmark runs every stage over one benchmark and checks the
// final stage against the reference suite.
func ladderBenchmark(ctx context.Context, tr *tracer, root *activeSpan, ref *experiments.Suite, dir, name string, scale float64, st *ladderStats) error {
	w, err := workload.New(name, scale)
	if err != nil {
		return err
	}
	stage := func(span, layer string, acc *time.Duration, fn func() error) error {
		sp := tr.start(root, span, layer)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		*acc += d
		sp.end(map[string]any{"benchmark": name})
		return err
	}

	var instrs uint64
	if err := stage("workload.emit", "workload", &st.emit, func() error {
		w.Emit(func(workload.Instr) bool { instrs++; return true })
		return nil
	}); err != nil {
		return err
	}
	st.instrs += instrs

	var events uint64
	if err := stage("sim.cpu", "sim.cpu", &st.cpu, func() error {
		hier, err := cache.NewHierarchy(cache.AlphaLike())
		if err != nil {
			return err
		}
		_, err = cpu.RunStreamContext(ctx, w, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
			events += uint64(b.Len())
			return nil
		})
		return err
	}); err != nil {
		return err
	}
	st.events += events

	if err := stage("interval.collect", "interval", &st.collect, func() error {
		_, err := simulateStages(ctx, w, false)
		return err
	}); err != nil {
		return err
	}

	var out simOutput
	if err := stage("prefetch", "prefetch", &st.prefetch, func() error {
		var err error
		out, err = simulateStages(ctx, w, true)
		return err
	}); err != nil {
		return err
	}
	res := out.res
	st.l1Events += res.L1I.Accesses + res.L1D.Accesses
	st.cycles += res.Cycles
	addStats(&st.l1i, res.L1I)
	addStats(&st.l1d, res.L1D)
	addStats(&st.l2, res.L2)
	addEngine(&st.engines, out.iEng)
	addEngine(&st.engines, out.dEng)

	for k := range sides {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := stage("interval.aggregate", "interval", &st.agg[k], func() error {
			interval.NewAggregates(out.dists[k])
			return nil
		}); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		st.aggAlloc[k] += m1.TotalAlloc - m0.TotalAlloc
		st.intervals += out.dists[k].NumIntervals()
	}

	storeDir := filepath.Join(dir, "codec")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return err
	}
	if err := stage("experiments.diskcache_store", "experiments", &st.store, func() error {
		for k, s := range sides {
			if err := writeDistribution(filepath.Join(storeDir, name+"."+s.name), out.dists[k]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	var accesses uint64
	if err := stage("sim.cache", "sim.cache", &st.cachePass, func() error {
		hier, err := cache.NewHierarchy(cache.AlphaLike())
		if err != nil {
			return err
		}
		last := ^uint64(0)
		w.Emit(func(in workload.Instr) bool {
			if line := in.PC >> 6; line != last {
				hier.Fetch(in.PC)
				last = line
				accesses++
			}
			if in.Kind != workload.Op {
				hier.Data(in.Addr)
				accesses++
			}
			return true
		})
		return nil
	}); err != nil {
		return err
	}
	st.accesses += accesses

	var inline time.Duration
	var bd *experiments.BenchmarkData
	if err := stage("experiments.simulate_inline", "experiments", &inline, func() error {
		var err error
		bd, err = ref.DataContext(ctx, name)
		return err
	}); err != nil {
		return err
	}
	st.inline += inline
	if name == "gzip" {
		st.inlineGzip = inline
	}
	return checkAgainstSuite(out, bd)
}

// simOutput is the product of one simulation pass.
type simOutput struct {
	res        cpu.Result
	dists      [3]*interval.Distribution
	iEng, dEng prefetch.EngineStats
}

// simulateStages runs the collection pipeline over w: the three interval
// collectors alone, or (withPrefetch) with the prefetch classifiers and
// engines wired exactly as the suite's inline path wires them.
func simulateStages(ctx context.Context, w workload.Workload, withPrefetch bool) (simOutput, error) {
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		return simOutput{}, err
	}
	var iCl, dCl interval.Classifier
	var iEng, dEng *prefetch.Engine
	if withPrefetch {
		ic, err := prefetch.NewClassifier(prefetch.ForICache())
		if err != nil {
			return simOutput{}, err
		}
		dc, err := prefetch.NewClassifier(prefetch.ForDCache())
		if err != nil {
			return simOutput{}, err
		}
		if iEng, err = prefetch.NewEngine(prefetch.DefaultEngineConfig(prefetch.ForICache())); err != nil {
			return simOutput{}, err
		}
		if dEng, err = prefetch.NewEngine(prefetch.DefaultEngineConfig(prefetch.ForDCache())); err != nil {
			return simOutput{}, err
		}
		if err := iEng.ShareStrides(ic); err != nil {
			return simOutput{}, err
		}
		if err := dEng.ShareStrides(dc); err != nil {
			return simOutput{}, err
		}
		iCl, dCl = ic, dc
	}
	var cols [3]*interval.Collector
	for k, s := range sides {
		var cl interval.Classifier
		switch s.id {
		case trace.L1I:
			cl = iCl
		case trace.L1D:
			cl = dCl
		}
		if cols[k], err = interval.NewCollector(s.id, uint32(hier.CacheByID(s.id).Config().NumLines()), cl); err != nil {
			return simOutput{}, err
		}
	}
	res, err := cpu.RunStreamContext(ctx, w, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		for i, n := 0, b.Len(); i < n; i++ {
			cycle, lineAddr, pc := b.Cycles[i], b.LineAddrs[i], b.PCs[i]
			frame, kind, miss := b.Frames[i], b.Kinds[i], b.Misses[i]
			switch b.Caches[i] {
			case trace.L1I:
				if err := cols[0].AddCols(cycle, lineAddr, pc, frame, trace.L1I, kind, miss); err != nil {
					return err
				}
				if iEng != nil {
					iEng.AccessCols(cycle, lineAddr, pc, kind, miss)
				}
			case trace.L1D:
				if err := cols[1].AddCols(cycle, lineAddr, pc, frame, trace.L1D, kind, miss); err != nil {
					return err
				}
				if dEng != nil {
					dEng.AccessCols(cycle, lineAddr, pc, kind, miss)
				}
			case trace.L2:
				if err := cols[2].AddCols(cycle, lineAddr, pc, frame, trace.L2, kind, miss); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return simOutput{}, err
	}
	out := simOutput{res: res}
	for k := range cols {
		if out.dists[k], err = cols[k].Finish(res.Cycles); err != nil {
			return simOutput{}, err
		}
	}
	if withPrefetch {
		out.iEng, out.dEng = iEng.Finish(), dEng.Finish()
	}
	return out, nil
}

// checkAgainstSuite requires the ladder's final stage to reproduce the
// suite's simulation products exactly.
func checkAgainstSuite(out simOutput, bd *experiments.BenchmarkData) error {
	if out.res != bd.Result {
		return fmt.Errorf("simulation result %+v differs from the suite's %+v", out.res, bd.Result)
	}
	if out.iEng != bd.IEngine || out.dEng != bd.DEngine {
		return fmt.Errorf("prefetch engine statistics differ from the suite's")
	}
	for k, want := range [3]*interval.Distribution{bd.ICache, bd.DCache, bd.L2Cache} {
		a, err := digest(out.dists[k])
		if err != nil {
			return err
		}
		b, err := digest(want)
		if err != nil {
			return err
		}
		if a != b {
			return fmt.Errorf("%s distribution digest %x differs from the suite's %x", sides[k].name, a[:8], b[:8])
		}
	}
	return nil
}

// digest hashes a distribution's serialized form.
func digest(d *interval.Distribution) ([32]byte, error) {
	h := sha256.New()
	if err := interval.WriteDistribution(h, d); err != nil {
		return [32]byte{}, err
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// writeDistribution stores one distribution the way the disk cache does:
// the codec into a file, then close.
func writeDistribution(path string, d *interval.Distribution) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := interval.WriteDistribution(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func addStats(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
}

func addEngine(dst *prefetch.EngineStats, s prefetch.EngineStats) {
	dst.DemandAccesses += s.DemandAccesses
	dst.DemandMisses += s.DemandMisses
	dst.Issued += s.Issued
	dst.Useful += s.Useful
	dst.Late += s.Late
	dst.Useless += s.Useless
	dst.CoveredMisses += s.CoveredMisses
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report writes the ladder's per-layer metrics into r.
func (st *ladderStats) report(r *result) {
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r.layer["workload.emit_ns_per_instr"] = ratio(ns(st.emit), float64(st.instrs))
	r.layer["sim.cpu.ns_per_instr"] = ratio(ns(st.cpu-st.emit), float64(st.instrs))
	r.layer["sim.cache.ns_per_access"] = ratio(ns(st.cachePass-st.emit), float64(st.accesses))
	r.layer["interval.collect_ns_per_event"] = ratio(ns(st.collect-st.cpu), float64(st.events))
	r.layer["prefetch.ns_per_event"] = ratio(ns(st.prefetch-st.collect), float64(st.l1Events))
	for k, s := range sides {
		r.layer["interval.aggregate_ms."+s.name] = ms(st.agg[k])
		r.layer["interval.aggregate_alloc_mb."+s.name] = float64(st.aggAlloc[k]) / (1 << 20)
	}
	r.layer["experiments.simulate_inline_ms"] = ms(st.inlineGzip)
	r.layer["experiments.simulate_ring_ms"] = ms(st.ringGzip)
	r.layer["experiments.diskcache_store_ms"] = ms(st.store)
	r.layer["experiments.diskcache_load_ms"] = ms(st.load)
	r.layer["experiments.geometry_sweep_ms"] = ms(st.geometry)
	staged := st.prefetch + st.agg[0] + st.agg[1] + st.agg[2] + st.store
	r.layer["ladder.residual_share"] = 1 - ratio(ns(staged), ns(st.inline))

	r.layer["workload.instrs"] = float64(st.instrs)
	r.layer["sim.cpu.cycles"] = float64(st.cycles)
	r.layer["sim.cpu.ipc"] = ratio(float64(st.instrs), float64(st.cycles))
	r.layer["sim.cache.l1i_miss_rate"] = st.l1i.MissRate()
	r.layer["sim.cache.l1d_miss_rate"] = st.l1d.MissRate()
	r.layer["sim.cache.l2_miss_rate"] = st.l2.MissRate()
	r.layer["interval.intervals"] = float64(st.intervals)
	r.layer["prefetch.accuracy"] = st.engines.Accuracy()
	r.layer["prefetch.coverage"] = st.engines.Coverage()
	r.layer["prefetch.late_share"] = ratio(float64(st.engines.Late), float64(st.engines.Issued))
}
