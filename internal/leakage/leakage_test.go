package leakage

import (
	"math"
	"testing"
	"testing/quick"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

func tech70() power.Technology { return power.Default() }

func TestModeString(t *testing.T) {
	if Active.String() != "active" || Drowsy.String() != "drowsy" || Sleep.String() != "sleep" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
	if !Active.Valid() || Mode(3).Valid() {
		t.Error("Valid wrong")
	}
	if len(Modes()) != 3 {
		t.Error("Modes() wrong")
	}
}

func TestEnergyWithModeFeasibility(t *testing.T) {
	tech := tech70()
	if _, err := EnergyWithMode(tech, 5, Drowsy); err == nil {
		t.Error("drowsy accepted below overhead 6")
	}
	if _, err := EnergyWithMode(tech, 36, Sleep); err == nil {
		t.Error("sleep accepted below overhead 37")
	}
	if _, err := EnergyWithMode(tech, 5, Active); err != nil {
		t.Error("active rejected")
	}
	if _, err := EnergyWithMode(tech, 100, Mode(7)); err == nil {
		t.Error("bad mode accepted")
	}
	e, err := EnergyWithMode(tech, 100, Drowsy)
	if err != nil || math.Abs(e-tech.DrowsyEnergy(100)) > 1e-12 {
		t.Errorf("drowsy energy mismatch: %g, %v", e, err)
	}
}

func TestOptimalModeRegimes(t *testing.T) {
	tech := tech70()
	cases := []struct {
		length float64
		want   Mode
	}{
		{1, Active},
		{6, Active},
		{7, Drowsy},
		{1057, Drowsy},
		{1058, Sleep},
		{1e6, Sleep},
	}
	for _, c := range cases {
		got, err := OptimalMode(tech, c.length)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("OptimalMode(%g) = %v, want %v", c.length, got, c.want)
		}
	}
}

// distOf builds a distribution from explicit (length, flags, count) rows.
func distOf(frames uint32, cycles uint64, rows ...[3]uint64) *interval.Distribution {
	d := interval.NewDistribution(frames, cycles)
	for _, r := range rows {
		d.Add(r[0], interval.Flags(r[1]), r[2])
	}
	return d
}

func TestEvaluateBaseline(t *testing.T) {
	tech := tech70()
	d := distOf(1, 100, [3]uint64{100, uint64(interval.Untouched), 1})
	ev, err := Evaluate(tech, d, AlwaysActive{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Savings != 0 {
		t.Errorf("always-active savings = %g, want 0", ev.Savings)
	}
	if ev.Energy != ev.Baseline {
		t.Errorf("energy %g != baseline %g", ev.Energy, ev.Baseline)
	}
}

func TestEvaluateErrors(t *testing.T) {
	tech := tech70()
	if _, err := Evaluate(tech, nil, AlwaysActive{}); err == nil {
		t.Error("nil distribution accepted")
	}
	if _, err := Evaluate(tech, distOf(1, 1), AlwaysActive{}); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := Evaluate(tech, distOf(1, 10, [3]uint64{10, 0, 1}), nil); err == nil {
		t.Error("nil policy accepted")
	}
	bad := tech
	bad.PActive = 0
	if _, err := Evaluate(bad, distOf(1, 10, [3]uint64{10, 0, 1}), AlwaysActive{}); err == nil {
		t.Error("invalid technology accepted")
	}
}

func TestOPTDrowsySavesTwoThirds(t *testing.T) {
	// One giant interior interval: OPT-Drowsy's savings approach
	// 1 - PDrowsy/PActive = 2/3.
	tech := tech70()
	d := distOf(1, 1e6, [3]uint64{1e6, 0, 1})
	ev, err := Evaluate(tech, d, OPTDrowsy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.Savings-2.0/3) > 0.01 {
		t.Errorf("OPT-Drowsy savings = %g, want ~0.667", ev.Savings)
	}
}

func TestOPTSleepApproachesFullSavings(t *testing.T) {
	tech := tech70()
	d := distOf(1, 1e7, [3]uint64{1e7, 0, 1})
	ev, err := Evaluate(tech, d, OPTSleep{Theta: 1057})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Savings < 0.98 {
		t.Errorf("OPT-Sleep on one huge interval saved only %g", ev.Savings)
	}
	// Short intervals stay active: zero savings.
	d = distOf(1, 600, [3]uint64{100, 0, 6})
	ev, err = Evaluate(tech, d, OPTSleep{Theta: 1057})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Savings != 0 {
		t.Errorf("OPT-Sleep slept sub-theta intervals: savings %g", ev.Savings)
	}
}

func TestHybridDominatesComponents(t *testing.T) {
	// A mixed distribution: hybrid must beat both pure policies (it can
	// always mimic either).
	tech := tech70()
	d := distOf(4, 2e6,
		[3]uint64{4, 0, 1000},   // active regime
		[3]uint64{500, 0, 2000}, // drowsy regime
		[3]uint64{50000, 0, 30}, // sleep regime
		[3]uint64{2e6, uint64(interval.Untouched), 1},
	)
	hybrid, err := Evaluate(tech, d, OPTHybrid{})
	if err != nil {
		t.Fatal(err)
	}
	sleepOnly, err := Evaluate(tech, d, OPTSleep{Theta: 1057})
	if err != nil {
		t.Fatal(err)
	}
	drowsyOnly, err := Evaluate(tech, d, OPTDrowsy{})
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Savings < sleepOnly.Savings || hybrid.Savings < drowsyOnly.Savings {
		t.Errorf("hybrid %.4f below components (sleep %.4f, drowsy %.4f)",
			hybrid.Savings, sleepOnly.Savings, drowsyOnly.Savings)
	}
}

func TestDecayWastesVersusOracle(t *testing.T) {
	// For an interval just above theta, the decay scheme burns theta active
	// cycles that OPT-Sleep(theta) does not.
	tech := tech70()
	d := distOf(1, 4e4, [3]uint64{30000, 0, 1})
	decay, err := Evaluate(tech, d, SleepDecay{Theta: 10000})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Evaluate(tech, d, OPTSleep{Theta: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if decay.Savings >= oracle.Savings {
		t.Errorf("decay (%.4f) not worse than oracle (%.4f)", decay.Savings, oracle.Savings)
	}
	if decay.Savings <= 0 {
		t.Errorf("decay saved nothing on a 30K interval: %.4f", decay.Savings)
	}
}

func TestDecayShortIntervalPaysCounter(t *testing.T) {
	// Intervals below theta stay active AND pay the counter: slightly
	// negative savings.
	tech := tech70()
	d := distOf(1, 1e4, [3]uint64{5000, 0, 2})
	decay, err := Evaluate(tech, d, SleepDecay{Theta: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if decay.Savings >= 0 {
		t.Errorf("decay on short intervals should cost counter energy, got savings %.5f", decay.Savings)
	}
}

func TestEdgeGapHandling(t *testing.T) {
	tech := tech70()
	// Leading gap: slept with no CD. Compare to an interior interval of the
	// same length, which must cost more (it pays CD and the entry).
	lead := OPTHybrid{}.IntervalEnergy(tech, 100000, interval.Leading)
	inner := OPTHybrid{}.IntervalEnergy(tech, 100000, 0)
	if lead >= inner {
		t.Errorf("leading gap (%g) not cheaper than interior (%g)", lead, inner)
	}
	trail := OPTHybrid{}.IntervalEnergy(tech, 100000, interval.Trailing)
	if trail >= inner {
		t.Errorf("trailing gap (%g) not cheaper than interior (%g)", trail, inner)
	}
	unt := OPTHybrid{}.IntervalEnergy(tech, 100000, interval.Untouched)
	if unt >= lead || unt >= trail {
		t.Errorf("untouched (%g) not cheapest (lead %g, trail %g)", unt, lead, trail)
	}
}

func TestPrefetchPolicies(t *testing.T) {
	tech := tech70()
	// A long prefetchable interval is slept by both A and B.
	a := PrefetchA().IntervalEnergy(tech, 50000, interval.NLPrefetchable)
	b := PrefetchB().IntervalEnergy(tech, 50000, interval.NLPrefetchable)
	if a != b {
		t.Errorf("prefetchable intervals differ between A (%g) and B (%g)", a, b)
	}
	if a >= tech.ActiveEnergy(50000)*0.2 {
		t.Errorf("prefetchable long interval not slept: %g", a)
	}
	// A long non-prefetchable interval: A stays active, B drowses.
	aN := PrefetchA().IntervalEnergy(tech, 50000, 0)
	bN := PrefetchB().IntervalEnergy(tech, 50000, 0)
	if aN != tech.ActiveEnergy(50000) {
		t.Errorf("Prefetch-A non-prefetchable not active: %g", aN)
	}
	if bN >= aN {
		t.Errorf("Prefetch-B (%g) not below Prefetch-A (%g) on non-prefetchable", bN, aN)
	}
	if PrefetchA().Name() != "Prefetch-A" || PrefetchB().Name() != "Prefetch-B" {
		t.Error("prefetch policy names wrong")
	}
}

func TestPolicyNames(t *testing.T) {
	if (OPTSleep{Theta: 10000}).Name() != "OPT-Sleep(10000)" {
		t.Error("OPTSleep name wrong")
	}
	if (SleepDecay{Theta: 10000}).Name() != "Sleep(10000)" {
		t.Error("SleepDecay name wrong")
	}
	if (OPTHybrid{}).Name() != "OPT-Hybrid" {
		t.Error("OPTHybrid name wrong")
	}
	if (OPTHybrid{SleepTheta: 2000}).Name() != "OPT-Hybrid(2000)" {
		t.Error("OPTHybrid theta name wrong")
	}
	if (OPTDrowsy{}).Name() != "OPT-Drowsy" || (AlwaysActive{}).Name() != "Active" {
		t.Error("policy names wrong")
	}
}

func TestSavingsWithinUnitInterval(t *testing.T) {
	// Property: for random distributions, every oracle policy's savings lie
	// in [0, 1); the decay policy may dip slightly negative (counters) but
	// never below -CounterLeak/PActive.
	tech := tech70()
	f := func(lens []uint16, counts []uint8) bool {
		d := interval.NewDistribution(8, 0)
		n := len(lens)
		if len(counts) < n {
			n = len(counts)
		}
		var mass uint64
		for i := 0; i < n; i++ {
			l := uint64(lens[i]) + 1
			c := uint64(counts[i])%16 + 1
			d.Add(l, 0, c)
			mass += l * c
		}
		if mass == 0 {
			return true
		}
		for _, p := range []Policy{OPTDrowsy{}, OPTSleep{Theta: 1057}, OPTHybrid{}, PrefetchA(), PrefetchB()} {
			ev, err := Evaluate(tech, d, p)
			if err != nil {
				return false
			}
			if ev.Savings < -1e-9 || ev.Savings >= 1 {
				return false
			}
		}
		// The decay scheme can genuinely waste energy (counter leakage,
		// and an induced miss that barely amortizes): allow a bounded dip
		// below zero but never a large one.
		ev, err := Evaluate(tech, d, SleepDecay{Theta: 10000})
		if err != nil {
			return false
		}
		return ev.Savings >= -0.5 && ev.Savings < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEvaluationString(t *testing.T) {
	ev := Evaluation{Policy: "X", Savings: 0.964}
	if ev.String() != "X: 96.4% leakage savings" {
		t.Errorf("String = %q", ev.String())
	}
}
