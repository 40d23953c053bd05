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
// scale. It runs one forEach task per benchmark: the task emits the
// benchmark's instruction stream once and drives one machine per
// geometry from it (cpu.RunManyContext), each collecting only its D-cache
// with no prefetch classifiers — a fraction of a suite simulation's
// memory — and answers both policies for each geometry in one
// leakage.EvaluateMany pass.
func (s *Suite) GeometrySweepContext(ctx context.Context, scale float64) (*report.Table, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("%w: %g", ErrNonPositiveScale, scale)
	}
	tech := power.Default()
	pols := []leakage.Policy{leakage.OPTHybrid{}, leakage.SleepDecay{Theta: 10000}}
	pts, names := GeometrySweepPoints(), workload.Names()
	hcs := make([]cache.HierarchyConfig, len(pts))
	for pi, pt := range pts {
		hc := cache.AlphaLike()
		hc.L1D.SizeBytes = pt.SizeKB << 10
		hc.L1D.Assoc = pt.Assoc
		hc.L1I.SizeBytes = pt.SizeKB << 10
		hc.L1I.Assoc = pt.Assoc
		hcs[pi] = hc
	}
	type point struct {
		frames        uint32
		hybrid, sleep float64
	}
	res := make([]point, len(pts)*len(names))
	err := s.forEach(ctx, len(names), func(bi int) error {
		return simulateGeometries(ctx, names[bi], scale, hcs, func(pi int, dist *interval.Distribution) error {
			evs, err := leakage.EvaluateMany(tech, interval.NewAggregates(dist), pols)
			if err != nil {
				return err
			}
			res[pi*len(names)+bi] = point{dist.NumFrames, evs[0].Savings, evs[1].Savings}
			return nil
		})
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

// simulateGeometries runs benchmark name once on one machine per
// hierarchy in hcs, all driven by a single emit of its instruction
// stream, and hands each hierarchy's D-cache interval distribution to
// each, in hcs order. Each distribution and the collector behind it are
// released once each returns, so only one is resident at a time after
// the simulation.
func simulateGeometries(ctx context.Context, name string, scale float64, hcs []cache.HierarchyConfig, each func(i int, dist *interval.Distribution) error) error {
	w, err := workload.New(name, scale)
	if err != nil {
		return err
	}
	targets := make([]cpu.Target, len(hcs))
	cols := make([]*interval.Collector, len(hcs))
	for i, hc := range hcs {
		hier, err := cache.NewHierarchy(hc)
		if err != nil {
			return fmt.Errorf("experiments: %s on hierarchy %d: %w", name, i, err)
		}
		col, err := interval.NewCollector(trace.L1D, uint32(hier.L1D().Config().NumLines()), nil)
		if err != nil {
			return err
		}
		cols[i] = col
		targets[i] = cpu.Target{Hier: hier, Sink: func(b *stream.Batch) error {
			for j, c := range b.Caches {
				if c == trace.L1D {
					if err := col.AddCols(b.Cycles[j], b.LineAddrs[j], b.PCs[j], b.Frames[j], trace.L1D, b.Kinds[j], b.Misses[j]); err != nil {
						return err
					}
				}
			}
			return nil
		}}
	}
	results, err := cpu.RunManyContext(ctx, w, cpu.DefaultConfig(), targets)
	if err != nil {
		return fmt.Errorf("experiments: %s geometry simulation: %w", name, err)
	}
	// Drop the hierarchies and the sinks (which hold the collectors), so
	// each collector is released as soon as its distribution is finished.
	clear(targets)
	for i, col := range cols {
		dist, err := col.Finish(results[i].Cycles)
		if err != nil {
			return err
		}
		cols[i] = nil
		if err := each(i, dist); err != nil {
			return err
		}
	}
	return nil
}
