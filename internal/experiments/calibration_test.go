package experiments

// Calibration regression tests: wide bands around the paper-shape results
// so that future changes to the workload generators or energy model that
// silently break the reproduction fail loudly here. Exact values live in
// EXPERIMENTS.md; these bands are deliberately generous because the shared
// test suite runs at reduced scale.

import (
	"context"
	"testing"
)

// figure8Avg fetches the average row of Figure 8 as a name->savings map.
func figure8Avg(t *testing.T, iCache bool) map[string]float64 {
	t.Helper()
	rows, err := Figure8Context(context.Background(), testSuiteShared, iCache)
	if err != nil {
		t.Fatal(err)
	}
	avg := rows[len(rows)-1]
	out := map[string]float64{}
	for i, p := range Figure8Policies() {
		out[p.Name()] = avg.Savings[i]
	}
	return out
}

func inBand(t *testing.T, label string, v, lo, hi float64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %.3f outside calibration band [%.2f, %.2f]", label, v, lo, hi)
	}
}

func TestCalibrationBandsICache(t *testing.T) {
	avg := figure8Avg(t, true)
	// Paper: 66.4 / ~70.4 / ~80.4 / 96.4 / ~80.4 / ~91.1.
	inBand(t, "I OPT-Drowsy", avg["OPT-Drowsy"], 0.64, 0.68)
	inBand(t, "I Sleep(10K)", avg["Sleep(10000)"], 0.62, 0.88)
	inBand(t, "I OPT-Sleep(10K)", avg["OPT-Sleep(10000)"], 0.72, 0.92)
	inBand(t, "I OPT-Hybrid", avg["OPT-Hybrid"], 0.92, 0.995)
	inBand(t, "I Prefetch-A", avg["Prefetch-A"], 0.70, 0.92)
	inBand(t, "I Prefetch-B", avg["Prefetch-B"], 0.84, 0.97)
}

func TestCalibrationBandsDCache(t *testing.T) {
	avg := figure8Avg(t, false)
	// Paper: 66.1 / ~84.1 / ~87.1 / 99.1 / - / 92.4.
	inBand(t, "D OPT-Drowsy", avg["OPT-Drowsy"], 0.64, 0.68)
	inBand(t, "D Sleep(10K)", avg["Sleep(10000)"], 0.55, 0.92)
	inBand(t, "D OPT-Sleep(10K)", avg["OPT-Sleep(10000)"], 0.75, 0.95)
	inBand(t, "D OPT-Hybrid", avg["OPT-Hybrid"], 0.92, 0.998)
	inBand(t, "D Prefetch-B", avg["Prefetch-B"], 0.72, 0.96)
}

func TestCalibrationImprovementFactor(t *testing.T) {
	// The paper's headline: the oracle leaves roughly 5x less leakage than
	// OPT-Sleep(10K) on the instruction cache. Band: [2.5, 9].
	avg := figure8Avg(t, true)
	factor := (1 - avg["OPT-Sleep(10000)"]) / (1 - avg["OPT-Hybrid"])
	if factor < 2.5 || factor > 9 {
		t.Errorf("I-cache improvement factor %.2f outside [2.5, 9] (paper: 5.3)", factor)
	}
}

func TestCalibrationBenchmarkCharacter(t *testing.T) {
	// Per-benchmark shape: the loop codes must out-save the irregular
	// codes on the I-cache under sleep-family policies.
	rows, err := Figure8Context(context.Background(), testSuiteShared, true)
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench, policy string) float64 {
		for _, r := range rows {
			if r.Benchmark == bench {
				for i, p := range Figure8Policies() {
					if p.Name() == policy {
						return r.Savings[i]
					}
				}
			}
		}
		t.Fatalf("missing %s/%s", bench, policy)
		return 0
	}
	if get("applu", "OPT-Sleep(10000)") <= get("gcc", "OPT-Sleep(10000)") {
		t.Error("applu (tiny loop code) did not out-save gcc (300KB irregular code) on the I-cache")
	}
	// gcc's large footprint must make it one of the two worst I-cache
	// decay performers.
	worse := 0
	for _, name := range []string{"ammp", "applu", "gzip", "mesa", "vortex"} {
		if get(name, "Sleep(10000)") < get("gcc", "Sleep(10000)") {
			worse++
		}
	}
	if worse > 1 {
		t.Errorf("gcc not among the worst decay performers (%d benchmarks below it)", worse)
	}
}

func TestCalibrationPrefetchability(t *testing.T) {
	// Figure 9 bands: I-cache NL near the paper's 23%; D-cache stride
	// present but small; short intervals dominate counts.
	iP, err := Figure9Context(context.Background(), testSuiteShared, true)
	if err != nil {
		t.Fatal(err)
	}
	if nl := iP.NLShare(); nl < 0.10 || nl > 0.45 {
		t.Errorf("I NL share %.3f outside [0.10, 0.45] (paper: 0.23)", nl)
	}
	short := float64(iP.ShortCount) / float64(iP.Total())
	if short < 0.4 {
		t.Errorf("I short-interval count share %.3f — the (0,6] bucket must dominate", short)
	}
	dP, err := Figure9Context(context.Background(), testSuiteShared, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := dP.StrideShare(); st <= 0 || st > 0.12 {
		t.Errorf("D stride share %.4f outside (0, 0.12] (paper: 0.051)", st)
	}
}
