// Policy comparison: the Figure 8 experiment on a single benchmark.
//
// It runs one pointer-chasing workload (ammp) and one streaming workload
// (applu), then evaluates all six management schemes on both caches — the
// contrast shows why sleep mode matters more for the data cache and why
// prefetch-guided management struggles on pointer chasing.
//
//	go run ./examples/policy_compare
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"leakbound/internal/experiments"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
)

func main() {
	suite, err := experiments.New(experiments.WithScale(0.25))
	if err != nil {
		log.Fatal(err)
	}
	tech := power.Default()

	for _, bench := range []string{"ammp", "applu"} {
		data, err := suite.DataContext(context.Background(), bench)
		if err != nil {
			log.Fatal(err)
		}
		t := report.NewTable(
			fmt.Sprintf("%s at %s (%d cycles)", bench, tech.Name, data.Result.Cycles),
			"policy", "I-cache", "D-cache")
		for _, p := range experiments.Figure8Policies() {
			iEv, err := leakage.Evaluate(tech, data.ICache, p)
			if err != nil {
				log.Fatal(err)
			}
			dEv, err := leakage.Evaluate(tech, data.DCache, p)
			if err != nil {
				log.Fatal(err)
			}
			t.MustAddRow(p.Name(), report.Pct(iEv.Savings), report.Pct(dEv.Savings))
		}
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	fmt.Println("Note how Prefetch-A/B trail the oracle much more on ammp (neighbor-list")
	fmt.Println("pointer chasing defeats both prefetchers) than on applu (constant-stride")
	fmt.Println("sweeps are exactly what the stride predictor catches).")
}
