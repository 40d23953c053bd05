package experiments

// Property test for the streaming pipeline: the per-event golden path
// (cpu.Run with a one-event-at-a-time sink and standalone Classify/Observe
// calls) and the fused single-pass streaming path the suite uses
// (cpu.RunStream with ClassifyObserve and shared stride tables) must
// produce byte-identical interval distributions, engine statistics and
// leakage evaluations — for randomized workloads, not just the six
// built-in benchmarks. Runs under -race in CI (make race covers ./...).

import (
	"context"
	"fmt"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/prefetch"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

// splitmix64 derives the per-seed parameter stream; fixed constants keep
// every derivation reproducible from the seed alone.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// seededWorkload builds a randomized multi-phase workload whose every
// parameter derives from seed. Patterns are stateful cursors, so each
// pipeline run gets its own fresh build (identical by construction)
// rather than replaying a shared instance.
func seededWorkload(t *testing.T, seed uint64) workload.Workload {
	t.Helper()
	s := seed
	b := workload.NewBuilder(fmt.Sprintf("prop-%016x", seed))
	phases := 2 + int(splitmix64(&s)%2)
	for p := 0; p < phases; p++ {
		seq := b.Sequential((16+splitmix64(&s)%48)<<10, 8+8*(splitmix64(&s)%8))
		chase := b.Chase(256+int(splitmix64(&s)%1536), 64, splitmix64(&s))
		strided := b.Strided(64<<10, 4<<10, 512, 2+int(splitmix64(&s)%4))
		hot := b.Hot(1 + int(splitmix64(&s)%16))
		b.Phase(workload.PhaseSpec{
			BodyInstrs: 24 + int(splitmix64(&s)%120),
			Iterations: 300 + int(splitmix64(&s)%900),
			MemEvery:   2 + int(splitmix64(&s)%3),
			Loads:      []workload.Pattern{seq, chase, strided},
			Stores:     []workload.Pattern{hot},
		})
	}
	w, err := b.Build()
	if err != nil {
		t.Fatalf("seed %#x: building workload: %v", seed, err)
	}
	return w
}

// simulateGolden is the reference pipeline: one sink callback per event,
// collectors on the classic Classify/Observe interface, engines probing
// their own private stride tables. Everything the fused streaming path
// optimized away is still present here, which is exactly why it anchors
// the equivalence.
func simulateGolden(name string, w workload.Workload) (*BenchmarkData, error) {
	hier, err := cache.NewHierarchy(cache.AlphaLike())
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
	iClass := prefetch.MustNewClassifier(prefetch.ForICache())
	dClass := prefetch.MustNewClassifier(prefetch.ForDCache())
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
	var sinkErr error
	res, err := cpu.Run(w, hier, cpu.DefaultConfig(), func(e trace.Event) {
		if sinkErr != nil {
			return
		}
		switch e.Cache {
		case trace.L1I:
			sinkErr = iCol.Add(e)
			iEng.Access(e)
		case trace.L1D:
			sinkErr = dCol.Add(e)
			dEng.Access(e)
		case trace.L2:
			sinkErr = l2Col.Add(e)
		}
	})
	if err != nil {
		return nil, err
	}
	if sinkErr != nil {
		return nil, sinkErr
	}
	return finishData(name, res, iCol, dCol, l2Col, iEng, dEng)
}

// requireSameData fails the test if two pipeline outputs differ anywhere
// a bit can differ: simulation result, all three distributions, engine
// stats, and the leakage evaluations computed from the distributions.
func requireSameData(t *testing.T, label string, a, b *BenchmarkData) {
	t.Helper()
	if a.Result != b.Result {
		t.Errorf("%s: results differ: %+v vs %+v", label, a.Result, b.Result)
	}
	if !a.ICache.Equal(b.ICache) {
		t.Errorf("%s: I-cache distributions differ", label)
	}
	if !a.DCache.Equal(b.DCache) {
		t.Errorf("%s: D-cache distributions differ", label)
	}
	if !a.L2Cache.Equal(b.L2Cache) {
		t.Errorf("%s: L2 distributions differ", label)
	}
	if a.IEngine != b.IEngine {
		t.Errorf("%s: I-engine stats differ: %+v vs %+v", label, a.IEngine, b.IEngine)
	}
	if a.DEngine != b.DEngine {
		t.Errorf("%s: D-engine stats differ: %+v vs %+v", label, a.DEngine, b.DEngine)
	}
	tech := power.Default()
	for _, c := range []struct {
		cache  string
		da, db *interval.Distribution
	}{{"icache", a.ICache, b.ICache}, {"dcache", a.DCache, b.DCache}} {
		ba, err := leakage.HybridBreakdown(tech, c.da)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, c.cache, err)
		}
		bb, err := leakage.HybridBreakdown(tech, c.db)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, c.cache, err)
		}
		if ba != bb {
			t.Errorf("%s/%s: leakage breakdowns differ: %+v vs %+v", label, c.cache, ba, bb)
		}
	}
}

// TestStreamingEquivalenceRandomWorkloads is the pipeline's property
// test: for randomized workload seeds, the fused streaming pipeline must
// match the per-event golden pipeline bit for bit.
func TestStreamingEquivalenceRandomWorkloads(t *testing.T) {
	seeds := []uint64{1, 0xDECAF, 0xC0FFEE42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed_%#x", seed), func(t *testing.T) {
			t.Parallel()
			name := fmt.Sprintf("prop-%016x", seed)

			golden, err := simulateGolden(name, seededWorkload(t, seed))
			if err != nil {
				t.Fatalf("golden: %v", err)
			}

			fused, err := simulate(context.Background(), name, seededWorkload(t, seed))
			if err != nil {
				t.Fatalf("fused: %v", err)
			}

			requireSameData(t, "golden-vs-fused", golden, fused)
		})
	}
}
