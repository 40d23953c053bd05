// Command leakagesim runs one benchmark through the simulated Alpha-like
// machine and evaluates the leakage policies of the paper on the resulting
// cache access intervals.
//
// Usage:
//
//	leakagesim -bench gzip [-scale 0.5] [-tech 70nm] [-cache I|D|both]
//
// The standard observability flags (-metrics, -cpuprofile, -memprofile,
// -metrics-addr) are also accepted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"leakbound/internal/experiments"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

func main() {
	bench := flag.String("bench", "gzip", "benchmark: "+strings.Join(workload.Names(), ", "))
	scale := flag.Float64("scale", 0.5, "workload scale (1.0 = full study length)")
	techName := flag.String("tech", "70nm", "technology node: 70nm, 100nm, 130nm, 180nm")
	cacheSide := flag.String("cache", "both", "which cache to evaluate: I, D, or both")
	showStats := flag.Bool("stats", false, "also print the interior interval length distribution")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
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
		fmt.Fprintln(os.Stderr, "leakagesim:", err)
		os.Exit(1)
	}
	err = run(ctx, *bench, *scale, *techName, *cacheSide, *showStats)
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakagesim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, bench string, scale float64, techName, cacheSide string, showStats bool) error {
	if err := workload.Validate(bench); err != nil {
		return err
	}
	tech, err := power.TechnologyByName(techName)
	if err != nil {
		return err
	}
	suite, err := experiments.New(experiments.WithScale(scale))
	if err != nil {
		return err
	}
	data, err := suite.DataContext(ctx, bench)
	if err != nil {
		return err
	}

	res := data.Result
	fmt.Printf("%s @ scale %.2f on %s:\n", bench, scale, tech.Name)
	fmt.Printf("  %d instructions, %d cycles (IPC %.2f)\n",
		res.Instructions, res.Cycles, res.IPC())
	fmt.Printf("  L1I: %d accesses, miss rate %.4f\n", res.L1I.Accesses, res.L1I.MissRate())
	fmt.Printf("  L1D: %d accesses, miss rate %.4f\n", res.L1D.Accesses, res.L1D.MissRate())
	a, b, err := tech.InflectionPoints()
	if err != nil {
		return err
	}
	fmt.Printf("  inflection points: active-drowsy %.0f, drowsy-sleep %.0f\n\n", a, b)

	type sideSpec struct {
		label  string
		iCache bool
	}
	var sides []sideSpec
	if cacheSide == "I" || cacheSide == "both" {
		sides = append(sides, sideSpec{"Instruction cache", true})
	}
	if cacheSide == "D" || cacheSide == "both" {
		sides = append(sides, sideSpec{"Data cache", false})
	}
	if len(sides) == 0 {
		return fmt.Errorf("unknown -cache %q (want I, D, or both)", cacheSide)
	}

	for _, side := range sides {
		dist, agg := data.Side(side.iCache)
		t := report.NewTable(side.label, "policy", "savings")
		evals, err := leakage.EvaluateMany(tech, agg, experiments.Figure8Policies())
		if err != nil {
			return err
		}
		for _, ev := range evals {
			t.MustAddRow(ev.Policy, report.Pct(ev.Savings))
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if showStats {
			st, err := experiments.IntervalStatsTable(side.label+" interval lengths", dist)
			if err != nil {
				return err
			}
			if err := st.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}
