// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale f] [-workers n] [-timeout d] [-only item[,item...]]
//	            [-specs dir]
//
// where item is one of: fig1, table1, table2, table3, fig7, fig8, fig9,
// fig10, profile, extensions, policies, pareto, families, sweep. With no
// -only, everything is produced in paper order followed by the extension
// studies; "policies" prints the registered-scheme catalog, "pareto" the
// (normalized leakage, induced miss rate) frontier per cache side,
// "families" the related-work technique families against the bound, and
// "sweep" (opt-in only, never in the default run) a 256-point dense theta
// sweep per cache side through the aggregate evaluation kernel.
// -specs loads a directory of declarative workload specs (.json) and
// recorded traces (.trc) as extra benchmarks evaluated alongside the
// built-in six in every table, sweep, and frontier.
// -scale stretches the benchmark lengths (1.0 = the full study length);
// -workers bounds every parallel fan-out: the benchmark simulations, the
// geometry sweep's per-benchmark simulations, and the evaluation cells of
// every figure, table and study (each simulation runs on one goroutine;
// 0 = GOMAXPROCS);
// -timeout aborts the whole run after a duration. Ctrl-C (SIGINT/SIGTERM)
// cancels cleanly: in-flight simulations stop at their next cancellation
// check and partial telemetry is still flushed.
//
// Observability: -metrics prints a telemetry snapshot (per-benchmark
// simulation time, event counts, disk-cache hits/misses, fan-out utilization)
// to stderr after the run; -cpuprofile/-memprofile write pprof profiles;
// -metrics-addr serves /metrics, expvar and pprof over HTTP for long
// sweeps.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"leakbound/internal/experiments"
	"leakbound/internal/power"
	"leakbound/internal/report"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload/spec"
)

func main() {
	scale := flag.Float64("scale", experiments.DefaultScale, "workload scale (1.0 = full study length)")
	workers := flag.Int("workers", 0, "parallelism bound: workers for the simulations, geometry sweep and evaluations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	only := flag.String("only", "", "comma-separated subset: fig1,table1,table2,table3,fig7,fig8,fig9,fig10,profile,extensions,policies,pareto,families,sweep")
	cacheDir := flag.String("cache", "", "directory for on-disk simulation caching (empty = off)")
	specsDir := flag.String("specs", "", "directory of workload specs (.json) and recordings (.trc) to evaluate alongside the built-in benchmarks")
	format := flag.String("format", "text", "output format: text, markdown, or csv")
	obs := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stop, err := obs.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	err = run(ctx, *scale, *workers, *only, *cacheDir, *specsDir, *format)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "experiments: aborted:", err)
	}
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, scale float64, workers int, only, cacheDir, specsDir, format string) error {
	var render func(*report.Table) error
	switch format {
	case "text":
		render = func(t *report.Table) error { return t.Render(os.Stdout) }
	case "markdown":
		render = func(t *report.Table) error { return t.RenderMarkdown(os.Stdout) }
	case "csv":
		render = func(t *report.Table) error { return t.RenderCSV(os.Stdout) }
	default:
		return fmt.Errorf("unknown -format %q (want text, markdown, or csv)", format)
	}
	opts := []experiments.Option{
		experiments.WithScale(scale),
		experiments.WithWorkers(workers),
		experiments.WithCacheDir(cacheDir),
	}
	if specsDir != "" {
		srcs, err := spec.LoadDir(specsDir)
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
	want := map[string]bool{}
	if only != "" {
		for _, item := range strings.Split(only, ",") {
			want[strings.TrimSpace(item)] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }
	out := os.Stdout

	// The geometry sweep re-simulates every configuration (5 geometries
	// x 6 benchmarks), so it runs at no more than a quarter scale; the
	// committed results are made that way. It shares nothing with the
	// suite, so it runs before any suite simulation is resident and its
	// table waits for its place among the extensions: the peak memory is
	// then the larger of the two phases, not their sum.
	var geo *report.Table
	if selected("extensions") {
		if geo, err = suite.GeometrySweepContext(ctx, min(scale, 0.25)); err != nil {
			return err
		}
	}

	if selected("fig1") {
		if err := render(experiments.Figure1()); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if selected("table1") {
		t, err := experiments.Table1()
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if selected("fig7") {
		for _, iCache := range []bool{true, false} {
			sleep, hybrid, err := experiments.Figure7Context(ctx, suite, iCache)
			if err != nil {
				return err
			}
			side := "(a) Instruction Cache"
			if !iCache {
				side = "(b) Data Cache"
			}
			if err := report.RenderSeries(out,
				"Figure 7"+side+": hybrid vs sleep, swept minimum sleep interval",
				"interval", sleep, hybrid); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	if selected("fig8") {
		for _, iCache := range []bool{true, false} {
			t, err := experiments.Figure8TableContext(ctx, suite, iCache)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		pb, opt, gap, err := experiments.GapToOptimalContext(ctx, suite, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "I-cache: Prefetch-B %s vs OPT-Hybrid %s (gap %.1f%%)\n",
			report.Pct(pb), report.Pct(opt), gap*100)
		pb, opt, gap, err = experiments.GapToOptimalContext(ctx, suite, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "D-cache: Prefetch-B %s vs OPT-Hybrid %s (gap %.1f%%)\n\n",
			report.Pct(pb), report.Pct(opt), gap*100)
	}
	if selected("table2") {
		t, err := experiments.Table2Context(ctx, suite)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if selected("table3") {
		if err := experiments.Table3().Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if selected("fig9") {
		for _, iCache := range []bool{true, false} {
			t, err := experiments.Figure9TableContext(ctx, suite, iCache)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	if selected("fig10") {
		t, err := experiments.Figure10Table()
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if selected("extensions") {
		ext, err := experiments.ExtendedSchemesTableContext(ctx, suite)
		if err != nil {
			return err
		}
		if err := render(ext); err != nil {
			return err
		}
		fmt.Fprintln(out)
		l2, err := experiments.L2StudyContext(ctx, suite)
		if err != nil {
			return err
		}
		if err := render(l2); err != nil {
			return err
		}
		fmt.Fprintln(out)
		wb, err := experiments.WritebackAblationContext(ctx, suite)
		if err != nil {
			return err
		}
		if err := render(wb); err != nil {
			return err
		}
		fmt.Fprintln(out)
		ts, err := experiments.TemperatureSweepContext(ctx, suite, "gzip")
		if err != nil {
			return err
		}
		if err := render(ts); err != nil {
			return err
		}
		fmt.Fprintln(out)
		pq, err := experiments.PrefetcherQualityTableContext(ctx, suite)
		if err != nil {
			return err
		}
		if err := render(pq); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if err := render(geo); err != nil {
			return err
		}
		fmt.Fprintln(out)
		ld, err := experiments.LiveDeadStudyContext(ctx, suite)
		if err != nil {
			return err
		}
		if err := render(ld); err != nil {
			return err
		}
		fmt.Fprintln(out)
		bk, err := experiments.BreakdownTableContext(ctx, suite)
		if err != nil {
			return err
		}
		if err := render(bk); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if selected("profile") {
		all, err := suite.AllContext(ctx)
		if err != nil {
			return err
		}
		t := report.NewTable("Interval mass profile per benchmark (fraction of frame-cycles)",
			"benchmark", "cache", "(0,6]", "(6,1057]", "(1057,10K]", "(10K,103K]", "(103K,+inf)")
		for _, bd := range all {
			for _, side := range []string{"I", "D"} {
				dist := bd.ICache
				if side == "D" {
					dist = bd.DCache
				}
				p := experiments.MassProfile(dist)
				t.MustAddRow(bd.Name, side,
					report.Pct(p["(0,6]"]), report.Pct(p["(6,1057]"]),
					report.Pct(p["(1057,10K]"]), report.Pct(p["(10K,103K]"]),
					report.Pct(p["(103K,+inf)"]))
			}
		}
		if err := render(t); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if selected("policies") {
		if err := render(experiments.PolicyTable()); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	// "sweep" is opt-in only (never part of the default everything run):
	// a 256-point dense theta ladder per cache side, affordable because
	// each benchmark answers the whole ladder in one aggregate-kernel
	// pass.
	if len(want) != 0 && want["sweep"] {
		thetas := experiments.GeometricThetas(1057, 103084, 256)
		for _, iCache := range []bool{true, false} {
			side := "(a) Instruction Cache"
			if !iCache {
				side = "(b) Data Cache"
			}
			series := make([]*report.Series, 0, 2)
			for _, scheme := range []string{"opt-sleep", "opt-hybrid"} {
				pts, err := suite.SweepThetaContext(ctx, scheme, iCache, power.Default(), thetas)
				if err != nil {
					return err
				}
				sr := &report.Series{Name: scheme}
				for _, p := range pts {
					sr.Add(float64(p.Theta), p.Savings)
				}
				series = append(series, sr)
			}
			if err := report.RenderSeries(out,
				"Dense sweep "+side+": savings over 256 theta points",
				"theta", series...); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	if selected("pareto") {
		for _, iCache := range []bool{true, false} {
			t, err := suite.ParetoTableContext(ctx, iCache, power.Default(), nil)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	if selected("families") {
		for _, iCache := range []bool{true, false} {
			t, err := suite.TechniqueFamiliesTableContext(ctx, iCache, power.Default())
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}
