// Quickstart: the smallest end-to-end use of leakbound.
//
// It simulates one benchmark on the paper's Alpha-like machine, extracts
// the cache access intervals, and asks: with perfect knowledge of the
// future, how much of the instruction cache's leakage power could be
// eliminated?
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"leakbound/internal/experiments"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
)

func main() {
	// A Suite simulates benchmarks and caches their interval distributions.
	// Scale 0.25 keeps this example under a second.
	suite, err := experiments.New(experiments.WithScale(0.25))
	if err != nil {
		log.Fatal(err)
	}
	data, err := suite.DataContext(context.Background(), "gzip")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated gzip: %d instructions in %d cycles (IPC %.2f)\n",
		data.Result.Instructions, data.Result.Cycles, data.Result.IPC())

	// The 70nm technology node, calibrated to the paper's Table 1.
	tech := power.Default()
	a, b, err := tech.InflectionPoints()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inflection points at %s: active-drowsy %.0f cycles, drowsy-sleep %.0f cycles\n",
		tech.Name, a, b)

	// Evaluate the oracle hybrid policy (Theorem 1's assignment) against
	// an always-active baseline.
	ev, err := leakage.Evaluate(tech, data.ICache, leakage.OPTHybrid{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instruction cache leakage removed by the oracle: %s\n", ev)
	fmt.Printf("(energy %.3g vs baseline %.3g, model units)\n", ev.Energy, ev.Baseline)
}
