// Custom workload: apply the limit study to your own application's access
// pattern, declared in a JSON workload spec instead of Go code.
//
// The spec format (internal/workload/spec) composes the same kernels the
// SPEC2000 stand-ins use — sequential streams, blocked strided sweeps,
// pointer chases, hot scalars — into a synthetic model of an arbitrary
// program. examples/specs/kvstore.json models a simple in-memory
// key-value store: a hot request loop probing a hash index, chasing into
// a large value heap, and periodically compacting a log. This program
// compiles the spec, simulates it on the paper's machine, and asks how
// much of the cache's leakage an oracle could remove.
//
// The same spec file runs unmodified through the other surfaces:
//
//	go run ./cmd/experiments -specs examples/specs -only kvstore
//	go run ./cmd/tracegen -spec examples/specs/kvstore.json -record kv.trc
//	curl -d '{"spec": <kvstore.json>}' localhost:8091/api/v1/eval
//
// Run from the repository root:
//
//	go run ./examples/custom_workload
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload/spec"
)

func main() {
	// Load and compile the declarative description of the application.
	src, err := spec.LoadFile("examples/specs/kvstore.json")
	if err != nil {
		log.Fatal(err)
	}
	wl, err := src.Workload(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (spec digest %s)\n\n", src.ScenarioName(), src.ScenarioDigest()[:12])

	// Simulate on the paper's machine and collect D-cache intervals.
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		log.Fatal(err)
	}
	col, err := interval.NewCollector(trace.L1D, uint32(hier.L1D().Config().NumLines()), nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cpu.RunStreamContext(context.Background(), wl, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		for i := 0; i < b.Len(); i++ {
			// AddCols keeps only L1D events.
			if err := col.AddCols(b.Cycles[i], b.LineAddrs[i], b.PCs[i], b.Frames[i], b.Caches[i], b.Kinds[i], b.Misses[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	dist, err := col.Finish(res.Cycles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kvstore: %d instructions, %d cycles (IPC %.2f), L1D miss %.2f%%\n\n",
		res.Instructions, res.Cycles, res.IPC(), 100*res.L1D.MissRate())

	// What could management policies do with this D-cache?
	tech := power.Default()
	t := report.NewTable("Leakage savings potential for the kvstore D-cache (70nm)",
		"policy", "savings")
	agg := interval.NewAggregates(dist)
	evs, err := leakage.EvaluateMany(tech, agg, []leakage.Policy{
		leakage.SleepDecay{Theta: 10000},
		leakage.PeriodicDrowsy{Window: 2000},
		leakage.OPTDrowsy{},
		leakage.OPTHybrid{},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range evs {
		t.MustAddRow(ev.Policy, report.Pct(ev.Savings))
	}
	adaptive, err := leakage.EvaluateAdaptiveDecay(tech, agg)
	if err != nil {
		log.Fatal(err)
	}
	t.MustAddRow(adaptive.Policy, report.Pct(adaptive.Savings))
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Where does the oracle's residual energy go?
	bd, err := leakage.HybridBreakdown(tech, dist)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noracle residual: %.1f%% active, %.1f%% drowsy leak, %.1f%% transitions, "+
		"%.1f%% induced misses, %.1f%% sleep leak\n",
		bd.ActiveShare*100, bd.DrowsyShare*100, bd.TransitionShare*100,
		bd.InducedMissShare*100, bd.SleepShare*100)
}
