// Technology sweep: the generalized model of Section 3.3 applied beyond
// the paper's four process nodes.
//
// The model takes arbitrary circuit parameters — per-mode leakage powers,
// transition energies, induced-miss cost — and produces the inflection
// points and the optimal-policy savings. Here we reproduce the built-in
// nodes and then extrapolate a hypothetical "45nm" node to show how the
// study keeps working as technology changes, which is exactly the purpose
// the paper states for the model.
//
//	go run ./examples/technology_sweep
package main

import (
	"context"
	"fmt"
	"log"
	"math"
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
	data, err := suite.DataContext(context.Background(), "mesa")
	if err != nil {
		log.Fatal(err)
	}

	// A hypothetical node past the paper's horizon: leakage keeps growing,
	// refetch keeps getting cheaper. The calibration helper solves for a
	// CD that puts the inflection point at 500 cycles.
	dur := power.PaperDurations()
	pa := 1.6
	cd, err := power.CalibrateCD(pa, pa/3, pa/100, dur, 500)
	if err != nil {
		log.Fatal(err)
	}
	future := power.Technology{
		Name: "45nm (hypothetical)", FeatureNm: 45, Vdd: 0.8, Vth: 0.15,
		PActive: pa, PDrowsy: pa / 3, PSleep: pa / 100,
		CD: cd, CounterLeak: pa * 0.004, Durations: dur,
	}

	techs := append(power.Technologies(), future)
	t := report.NewTable("Optimal savings on mesa's instruction cache across technology nodes",
		"technology", "a", "b", "OPT-Drowsy", "OPT-Sleep", "OPT-Hybrid")
	for _, tech := range techs {
		a, b, err := tech.InflectionPoints()
		if err != nil {
			log.Fatal(err)
		}
		// Build the Figure 6 state machine and confirm it agrees with the
		// closed-form solver before using it.
		m := leakage.NewModel(tech)
		ma, mb, err := m.InflectionPoints()
		if err != nil {
			log.Fatal(err)
		}
		if math.Abs(ma-a) > 1e-6 || math.Abs(mb-b) > 1e-3 {
			log.Fatalf("%s: model (%g, %g) disagrees with solver (%g, %g)", tech.Name, ma, mb, a, b)
		}

		row := []string{tech.Name, fmt.Sprintf("%.0f", a), fmt.Sprintf("%.0f", b)}
		for _, pol := range []leakage.Policy{
			leakage.OPTDrowsy{},
			leakage.OPTSleep{Theta: uint64(math.Round(b))},
			leakage.OPTHybrid{},
		} {
			ev, err := leakage.Evaluate(tech, data.ICache, pol)
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, report.Pct(ev.Savings))
		}
		t.MustAddRow(row...)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nAs feature size shrinks, the drowsy-sleep inflection point falls and the")
	fmt.Println("achievable savings rise — the trend of the paper's Table 2, extended one")
	fmt.Println("node into the future.")
}
