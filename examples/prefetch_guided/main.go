// Prefetch-guided low power (Section 5 of the paper): approximate the
// oracle's perfect future knowledge with real predictors.
//
// This example builds the prefetchability analysis directly — classifier,
// collector, Figure 9 breakdown — then shows how far Prefetch-B gets toward
// the OPT-Hybrid bound on the data cache, where both next-line and stride
// predictors are active.
//
//	go run ./examples/prefetch_guided
package main

import (
	"context"
	"fmt"
	"log"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/prefetch"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

func main() {
	// Wire the pipeline by hand (instead of experiments.Suite) to show the
	// pieces: workload -> timing core -> classifier+collector.
	w, err := workload.New("applu", 0.3)
	if err != nil {
		log.Fatal(err)
	}
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		log.Fatal(err)
	}
	classifier, err := prefetch.NewClassifier(prefetch.ForDCache())
	if err != nil {
		log.Fatal(err)
	}
	collector, err := interval.NewCollector(trace.L1D,
		uint32(hier.L1D().Config().NumLines()), classifier)
	if err != nil {
		log.Fatal(err)
	}

	res, err := cpu.RunStreamContext(context.Background(), w, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		for i := 0; i < b.Len(); i++ {
			// AddCols keeps only L1D events.
			if err := collector.AddCols(b.Cycles[i], b.LineAddrs[i], b.PCs[i], b.Frames[i], b.Caches[i], b.Kinds[i], b.Misses[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	dist, err := collector.Finish(res.Cycles)
	if err != nil {
		log.Fatal(err)
	}

	tech := power.Default()
	a, b, err := tech.InflectionPoints()
	if err != nil {
		log.Fatal(err)
	}

	// Figure 9 for this one benchmark: which intervals could a prefetcher
	// have predicted?
	p := prefetch.Analyze(interval.NewAggregates(dist), a, b)
	nl, stride := classifier.Stats()
	fmt.Printf("applu D-cache: %d interior intervals\n", p.Total())
	fmt.Printf("  next-line prefetchable: %.1f%% (%d closings)\n", 100*p.NLShare(), nl)
	fmt.Printf("  stride prefetchable:    %.1f%% (%d closings)\n", 100*p.StrideShare(), stride)

	// How much of the oracle bound does prefetch-guided management recover?
	for _, pol := range []leakage.Policy{
		leakage.OPTHybrid{},
		leakage.PrefetchB(),
		leakage.PrefetchA(),
		leakage.SleepDecay{Theta: 10000},
	} {
		ev, err := leakage.Evaluate(tech, dist, pol)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %.1f%% leakage savings\n", pol.Name(), ev.Savings*100)
	}
	fmt.Println("\nThe counter-intuitive result of Section 5: prefetching — a latency")
	fmt.Println("technique — lowers power, because hiding the wakeup lets lines sleep")
	fmt.Println("aggressively without stalling the pipeline.")
}
