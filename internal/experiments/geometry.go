package experiments

// Cache-geometry sensitivity: the paper fixes the 64KB 2-way L1s of the
// Alpha 21264; this extension re-runs the limit study across L1 sizes and
// associativities to show how the bound moves with geometry — bigger
// caches idle more of their frames, so the recoverable fraction grows,
// which is the structural reason leakage management matters more as
// caches grow.

import (
	"context"
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

// SimulateCustomContext runs one benchmark on an arbitrary hierarchy and
// returns the flagged interval distribution of the selected cache. It
// exists for geometry sweeps and one-off studies outside the fixed-config
// Suite.
func SimulateCustomContext(ctx context.Context, name string, scale float64, hc cache.HierarchyConfig, side trace.CacheID) (*interval.Distribution, cpu.Result, error) {
	w, err := workload.New(name, scale)
	if err != nil {
		return nil, cpu.Result{}, err
	}
	hier, err := cache.NewHierarchy(hc)
	if err != nil {
		return nil, cpu.Result{}, err
	}
	target := hier.CacheByID(side)
	if target == nil {
		return nil, cpu.Result{}, fmt.Errorf("experiments: invalid cache side %v", side)
	}
	col, err := interval.NewCollector(side, uint32(target.Config().NumLines()), nil)
	if err != nil {
		return nil, cpu.Result{}, err
	}
	res, err := cpu.RunStreamContext(ctx, w, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		for i, c := range b.Caches {
			if c == side {
				if err := col.AddCols(b.Cycles[i], b.LineAddrs[i], b.PCs[i], b.Frames[i], side, b.Kinds[i], b.Misses[i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, cpu.Result{}, err
	}
	dist, err := col.Finish(res.Cycles)
	if err != nil {
		return nil, cpu.Result{}, err
	}
	return dist, res, nil
}

// GeometryPoint describes one swept configuration.
type GeometryPoint struct {
	SizeKB int
	Assoc  int
}

// GeometrySweepPoints returns the swept L1 configurations: the paper's
// 64KB/2-way plus half, quarter, double sizes and a 4-way variant.
func GeometrySweepPoints() []GeometryPoint {
	return []GeometryPoint{
		{16, 2}, {32, 2}, {64, 2}, {128, 2}, {64, 4},
	}
}

// GeometrySweepContext is Suite.GeometrySweepContext on a default Suite
// (GOMAXPROCS workers, the default telemetry registry). It is the package's
// one duplicate entry point, kept only because benchmark/leakbench/ladder.go
// calls it; delete it when the ladder moves to the method.
func GeometrySweepContext(ctx context.Context, scale float64) (*report.Table, error) {
	return MustNew().GeometrySweepContext(ctx, scale)
}

// GeometrySweepContext evaluates OPT-Hybrid and Sleep(10K) on the D-cache
// across L1 geometries, averaged over the built-in benchmarks at the given
// scale. Each (geometry, benchmark) point is a SimulateCustomContext run —
// D-cache only, no prefetch classifiers, a fraction of a suite
// simulation's memory — fanned out through forEach, and answers both
// policies in one leakage.EvaluateMany pass.
func (s *Suite) GeometrySweepContext(ctx context.Context, scale float64) (*report.Table, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("%w: %g", ErrNonPositiveScale, scale)
	}
	tech := power.Default()
	pols := []leakage.Policy{leakage.OPTHybrid{}, leakage.SleepDecay{Theta: 10000}}
	pts, names := GeometrySweepPoints(), workload.Names()
	type point struct {
		frames        uint32
		hybrid, sleep float64
	}
	res := make([]point, len(pts)*len(names))
	err := s.forEach(ctx, len(res), func(k int) error {
		pt, name := pts[k/len(names)], names[k%len(names)]
		hc := cache.AlphaLike()
		hc.L1D.SizeBytes = pt.SizeKB << 10
		hc.L1D.Assoc = pt.Assoc
		hc.L1I.SizeBytes = pt.SizeKB << 10
		hc.L1I.Assoc = pt.Assoc
		dist, _, err := SimulateCustomContext(ctx, name, scale, hc, trace.L1D)
		if err != nil {
			return fmt.Errorf("experiments: %s at %dKB/%d-way: %w", name, pt.SizeKB, pt.Assoc, err)
		}
		evs, err := leakage.EvaluateMany(tech, interval.NewAggregates(dist), pols)
		if err != nil {
			return err
		}
		res[k] = point{dist.NumFrames, evs[0].Savings, evs[1].Savings}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: L1 D-cache geometry sweep (70nm, benchmark average)",
		"L1 size", "assoc", "frames", "OPT-Hybrid", "Sleep(10K)")
	for pi, pt := range pts {
		row := res[pi*len(names) : (pi+1)*len(names)]
		var hySum, dcSum float64
		for _, r := range row {
			hySum += r.hybrid
			dcSum += r.sleep
		}
		n := float64(len(names))
		t.MustAddRow(
			fmt.Sprintf("%dKB", pt.SizeKB),
			fmt.Sprintf("%d", pt.Assoc),
			fmt.Sprintf("%d", row[len(row)-1].frames),
			report.Pct(hySum/n),
			report.Pct(dcSum/n),
		)
	}
	return t, nil
}
