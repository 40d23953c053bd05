package leakage

import (
	"math"
	"strings"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

func TestPeriodicDrowsyName(t *testing.T) {
	if (PeriodicDrowsy{Window: 2000}).Name() != "Drowsy(2000)" {
		t.Error("name wrong")
	}
}

func TestPeriodicDrowsyShortIntervalStaysActive(t *testing.T) {
	tech := power.Default()
	p := PeriodicDrowsy{Window: 2000}
	// Interval shorter than the expected wait: full active energy.
	e := p.IntervalEnergy(tech, 500, 0)
	if math.Abs(e-tech.ActiveEnergy(500)) > 1e-9 {
		t.Errorf("short interval energy %g != active %g", e, tech.ActiveEnergy(500))
	}
}

func TestPeriodicDrowsyLongIntervalSaves(t *testing.T) {
	tech := power.Default()
	p := PeriodicDrowsy{Window: 2000}
	L := uint64(100000)
	e := p.IntervalEnergy(tech, L, 0)
	active := tech.ActiveEnergy(float64(L))
	if e >= active {
		t.Errorf("long interval saved nothing: %g >= %g", e, active)
	}
	// But it can never beat OPT-Drowsy, which skips the active wait.
	opt := OPTDrowsy{}.IntervalEnergy(tech, L, 0)
	if e < opt {
		t.Errorf("periodic (%g) beat the drowsy oracle (%g)", e, opt)
	}
}

func TestPeriodicDrowsyEdgeGaps(t *testing.T) {
	tech := power.Default()
	p := PeriodicDrowsy{Window: 2000}
	lead := p.IntervalEnergy(tech, 100000, interval.Leading)
	trail := p.IntervalEnergy(tech, 100000, interval.Trailing)
	active := tech.ActiveEnergy(100000)
	if lead >= active || trail >= active {
		t.Error("edge gaps not drowsed")
	}
	if p.IntervalEnergy(tech, 100, interval.Leading) != tech.ActiveEnergy(100) {
		t.Error("short edge gap not active")
	}
}

func TestPeriodicDrowsyZeroWindow(t *testing.T) {
	tech := power.Default()
	p := PeriodicDrowsy{}
	if p.IntervalEnergy(tech, 1000, 0) != tech.ActiveEnergy(1000) {
		t.Error("zero window did not degrade to active")
	}
}

func TestPeriodicDrowsyWindowMonotone(t *testing.T) {
	// Longer windows drowse later: more energy on long idle intervals.
	tech := power.Default()
	short := PeriodicDrowsy{Window: 1000}.IntervalEnergy(tech, 50000, 0)
	long := PeriodicDrowsy{Window: 8000}.IntervalEnergy(tech, 50000, 0)
	if short >= long {
		t.Errorf("window monotonicity broken: W=1000 %g >= W=8000 %g", short, long)
	}
}

func extTestDist() *interval.Distribution {
	d := interval.NewDistribution(8, 2e6)
	d.Add(4, 0, 500)
	d.Add(800, 0, 300)
	d.Add(5000, 0, 100)
	d.Add(40000, 0, 20)
	d.Add(500000, 0, 4)
	d.Add(2e6, uint64HackUntouched(), 2)
	return d
}

// uint64HackUntouched keeps the literal table above tidy.
func uint64HackUntouched() interval.Flags { return interval.Untouched }

func TestEvaluateAdaptiveDecay(t *testing.T) {
	tech := power.Default()
	agg := interval.NewAggregates(extTestDist())
	adaptive, err := EvaluateAdaptiveDecay(tech, agg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(adaptive.Policy, "Adaptive-Decay(theta=") {
		t.Errorf("policy label %q", adaptive.Policy)
	}
	// Adaptive decay must match or beat every fixed theta on the ladder...
	for _, theta := range DecayThetaLadder() {
		fixed, err := EvaluateMany(tech, agg, []Policy{SleepDecay{Theta: theta}})
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.Energy > fixed[0].Energy+1e-9 {
			t.Errorf("adaptive (%g) lost to fixed theta=%d (%g)", adaptive.Energy, theta, fixed[0].Energy)
		}
	}
	// ...but never the oracle.
	oracle, err := EvaluateMany(tech, agg, []Policy{OPTHybrid{}})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Savings > oracle[0].Savings {
		t.Errorf("adaptive decay (%g) beat the oracle (%g)", adaptive.Savings, oracle[0].Savings)
	}
	if _, err := EvaluateAdaptiveDecay(tech, nil); err == nil {
		t.Error("nil distribution accepted")
	}
}

func TestAMCTagOverhead(t *testing.T) {
	tech := power.Default()
	// On a long interval, AMC saves less than plain decay by exactly the
	// tag fraction of the gated savings.
	L := uint64(200000)
	plain := SleepDecay{Theta: 10000}.IntervalEnergy(tech, L, 0)
	amc := AMCSleep{Theta: 10000, TagFraction: 0.06}.IntervalEnergy(tech, L, 0)
	if amc <= plain {
		t.Errorf("AMC (%g) not above plain decay (%g)", amc, plain)
	}
	slept := tech.ActiveEnergy(float64(L)) - plain
	wantExtra := 0.06 * slept
	if math.Abs((amc-plain)-wantExtra) > 1e-6*wantExtra {
		t.Errorf("tag overhead = %g, want %g", amc-plain, wantExtra)
	}
	// Short interval: nothing gated, no tag penalty on top of active.
	short := AMCSleep{Theta: 10000, TagFraction: 0.06}.IntervalEnergy(tech, 500, 0)
	plainShort := SleepDecay{Theta: 10000}.IntervalEnergy(tech, 500, 0)
	if short != plainShort {
		t.Error("short interval penalized")
	}
	if (AMCSleep{Theta: 10000}).Name() != "AMC(10000)" {
		t.Error("name wrong")
	}
}

func TestEvaluateAMC(t *testing.T) {
	tech := power.Default()
	agg := interval.NewAggregates(extTestDist())
	amc, err := EvaluateAMC(tech, agg, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := EvaluateAdaptiveDecay(tech, agg)
	if err != nil {
		t.Fatal(err)
	}
	// The tag-alive overhead must cost AMC something versus pure decay.
	if amc.Savings >= adaptive.Savings {
		t.Errorf("AMC (%g) not below adaptive decay (%g)", amc.Savings, adaptive.Savings)
	}
	if !strings.HasPrefix(amc.Policy, "AMC(theta=") {
		t.Errorf("policy label %q", amc.Policy)
	}
	if _, err := EvaluateAMC(tech, agg, -0.1); err == nil {
		t.Error("negative tag fraction accepted")
	}
	if _, err := EvaluateAMC(tech, agg, 1.0); err == nil {
		t.Error("tag fraction 1.0 accepted")
	}
	if _, err := EvaluateAMC(tech, nil, 0.06); err == nil {
		t.Error("nil distribution accepted")
	}
}

func TestExtendedSchemesOrdering(t *testing.T) {
	// The full pecking order on a mixed distribution:
	// OPT-Hybrid >= adaptive decay >= AMC, and OPT-Drowsy >= periodic drowsy.
	tech := power.Default()
	d := extTestDist()
	agg := interval.NewAggregates(d)
	hybrid, _ := Evaluate(tech, d, OPTHybrid{})
	adaptive, _ := EvaluateAdaptiveDecay(tech, agg)
	amc, _ := EvaluateAMC(tech, agg, 0.06)
	optDrowsy, _ := Evaluate(tech, d, OPTDrowsy{})
	periodic, _ := Evaluate(tech, d, PeriodicDrowsy{Window: 2000})
	if !(hybrid.Savings >= adaptive.Savings && adaptive.Savings >= amc.Savings) {
		t.Errorf("sleep-family ordering broken: hybrid %.4f adaptive %.4f amc %.4f",
			hybrid.Savings, adaptive.Savings, amc.Savings)
	}
	if optDrowsy.Savings < periodic.Savings {
		t.Errorf("drowsy-family ordering broken: opt %.4f periodic %.4f",
			optDrowsy.Savings, periodic.Savings)
	}
}

func TestDirtyIntervalCostsWriteback(t *testing.T) {
	tech := power.Default()
	tech.WBEnergy = 200
	clean := OPTHybrid{}.IntervalEnergy(tech, 50000, 0)
	dirty := OPTHybrid{}.IntervalEnergy(tech, 50000, interval.Dirty)
	if math.Abs((dirty-clean)-200) > 1e-9 {
		t.Errorf("dirty sleep surcharge = %g, want 200", dirty-clean)
	}
	// Drowsy mode preserves state: no write-back surcharge.
	cleanD := OPTDrowsy{}.IntervalEnergy(tech, 500, 0)
	dirtyD := OPTDrowsy{}.IntervalEnergy(tech, 500, interval.Dirty)
	if cleanD != dirtyD {
		t.Error("drowsy charged for dirty data")
	}
	// Decay pays it too when it gates a dirty line.
	cleanDecay := SleepDecay{Theta: 10000}.IntervalEnergy(tech, 50000, 0)
	dirtyDecay := SleepDecay{Theta: 10000}.IntervalEnergy(tech, 50000, interval.Dirty)
	if math.Abs((dirtyDecay-cleanDecay)-200) > 1e-9 {
		t.Errorf("decay dirty surcharge = %g, want 200", dirtyDecay-cleanDecay)
	}
	// With the default (paper) nodes, WBEnergy is zero and dirty is free.
	def := power.Default()
	dDirty := OPTHybrid{}.IntervalEnergy(def, 50000, interval.Dirty)
	dClean := OPTHybrid{}.IntervalEnergy(def, 50000, 0)
	if dDirty != dClean {
		t.Error("default node charged for write-back")
	}
}

func TestDirtyWritebackCanFlipModeChoice(t *testing.T) {
	// With a large enough write-back cost, sleeping a dirty line just past
	// the inflection point becomes worse than drowsing it — the dirty
	// inflection point sits later than the clean one.
	tech := power.Default()
	tech.WBEnergy = 300
	L := 1200.0 // just past b=1057
	sleepDirty := tech.SleepEnergy(L) + tech.WBEnergy
	drowsy := tech.DrowsyEnergy(L)
	if sleepDirty <= drowsy {
		t.Skip("write-back too cheap to flip at this length")
	}
	// OPTHybrid as implemented still sleeps (it uses the clean inflection
	// point); this test documents the gap an ideal dirty-aware policy
	// could close.
	got := OPTHybrid{}.IntervalEnergy(tech, uint64(L), interval.Dirty)
	if got < drowsy {
		t.Errorf("hybrid on dirty interval (%g) unexpectedly below drowsy (%g)", got, drowsy)
	}
}

func TestDirtyAwareHybridReducesToHybrid(t *testing.T) {
	// With zero write-back energy the two policies are identical.
	tech := power.Default()
	for _, L := range []uint64{3, 50, 1057, 1058, 5000, 1e6} {
		for _, f := range []interval.Flags{0, interval.Dirty, interval.Leading, interval.Trailing} {
			a := OPTHybrid{}.IntervalEnergy(tech, L, f)
			b := DirtyAwareHybrid{}.IntervalEnergy(tech, L, f)
			if a != b {
				t.Errorf("L=%d f=%v: hybrid %g != dirty-aware %g with WB=0", L, f, a, b)
			}
		}
	}
}

func TestDirtyAwareHybridBeatsHybridWithWriteback(t *testing.T) {
	tech := power.Default()
	tech.WBEnergy = 300
	bDirty, err := DirtyInflection(tech)
	if err != nil {
		t.Fatal(err)
	}
	_, b, _ := tech.InflectionPoints()
	if bDirty <= b {
		t.Fatalf("dirty inflection %g not after clean %g", bDirty, b)
	}
	// A dirty interval between the two inflection points: the naive hybrid
	// sleeps (and pays WB); the dirty-aware policy drowses and wins.
	L := uint64((b + bDirty) / 2)
	naive := OPTHybrid{}.IntervalEnergy(tech, L, interval.Dirty)
	aware := DirtyAwareHybrid{}.IntervalEnergy(tech, L, interval.Dirty)
	if aware >= naive {
		t.Errorf("dirty-aware (%g) not below naive hybrid (%g) at L=%d", aware, naive, L)
	}
	if aware != tech.DrowsyEnergy(float64(L)) {
		t.Errorf("dirty-aware did not drowse: %g", aware)
	}
	// Past the dirty inflection point, both sleep.
	L2 := uint64(bDirty * 2)
	awareFar := DirtyAwareHybrid{}.IntervalEnergy(tech, L2, interval.Dirty)
	naiveFar := OPTHybrid{}.IntervalEnergy(tech, L2, interval.Dirty)
	if awareFar != naiveFar {
		t.Error("policies differ beyond the dirty inflection point")
	}
	// Clean intervals are untouched by the extension.
	awareClean := DirtyAwareHybrid{}.IntervalEnergy(tech, L, 0)
	naiveClean := OPTHybrid{}.IntervalEnergy(tech, L, 0)
	if awareClean != naiveClean {
		t.Error("clean interval handling changed")
	}
}

func TestDirtyAwareHybridDominatesOnDistributions(t *testing.T) {
	// Over any distribution, the dirty-aware policy never loses to the
	// naive hybrid once write-backs cost energy (per-interval dominance).
	tech := power.Default()
	tech.WBEnergy = 150
	d := interval.NewDistribution(8, 2e6)
	d.Add(500, interval.Dirty, 100)
	d.Add(1500, interval.Dirty, 50)
	d.Add(1500, 0, 50)
	d.Add(90000, interval.Dirty, 10)
	naive, err := Evaluate(tech, d, OPTHybrid{})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Evaluate(tech, d, DirtyAwareHybrid{})
	if err != nil {
		t.Fatal(err)
	}
	if aware.Savings < naive.Savings {
		t.Errorf("dirty-aware (%g) below naive (%g)", aware.Savings, naive.Savings)
	}
	if (DirtyAwareHybrid{}).Name() != "OPT-Hybrid+WB" {
		t.Error("name wrong")
	}
}

func TestDeadAwareHybridDominatesLengthOnly(t *testing.T) {
	tech := power.Default()
	// For every interval shape, dead knowledge can only help.
	for _, L := range []uint64{3, 10, 50, 200, 1057, 1058, 5000, 1e6} {
		for _, f := range []interval.Flags{
			interval.DeadEnd, interval.DeadEnd | interval.Dirty,
			interval.DeadEnd | interval.NLPrefetchable, 0, interval.Leading,
		} {
			aware := DeadAwareHybrid{}.IntervalEnergy(tech, L, f)
			naive := OPTHybrid{}.IntervalEnergy(tech, L, f)
			if aware > naive+1e-9 {
				t.Errorf("L=%d f=%v: dead-aware (%g) above length-only (%g)", L, f, aware, naive)
			}
		}
	}
	// A mid-length dead interval (drowsy regime for length-only) must be
	// slept CD-free by the dead-aware oracle.
	L := uint64(500)
	aware := DeadAwareHybrid{}.IntervalEnergy(tech, L, interval.DeadEnd)
	if aware != tech.SleepEnergyNoRefetch(float64(L)) {
		t.Errorf("mid-length dead interval not slept CD-free: %g", aware)
	}
	// Live intervals are untouched.
	liveAware := DeadAwareHybrid{}.IntervalEnergy(tech, 500, 0)
	liveNaive := OPTHybrid{}.IntervalEnergy(tech, 500, 0)
	if liveAware != liveNaive {
		t.Error("live interval handling changed")
	}
	if (DeadAwareHybrid{}).Name() != "OPT-Hybrid+dead" {
		t.Error("name wrong")
	}
}

// TestBruteForceOptimality checks DirtyAwareHybrid against an exhaustive
// per-interval minimum over all feasible (mode, flag-semantics) choices:
// the closed-form inflection rules must always pick the cheapest option.
func TestBruteForceOptimality(t *testing.T) {
	tech := power.Default()
	tech.WBEnergy = 180
	bruteForce := func(L uint64, flags interval.Flags) float64 {
		// Candidates: active, drowsy (if it fits), sleep (if it fits, with
		// WB surcharge on dirty lines).
		best := tech.ActiveEnergy(float64(L))
		if float64(L) > float64(tech.Durations.DrowsyOverhead()) {
			if e := tech.DrowsyEnergy(float64(L)); e < best {
				best = e
			}
		}
		if float64(L) >= float64(tech.Durations.SleepOverhead()) && flags.Interior() {
			e := tech.SleepEnergy(float64(L))
			if flags&interval.Dirty != 0 {
				e += tech.WBEnergy
			}
			if e < best {
				best = e
			}
		}
		return best
	}
	for L := uint64(1); L < 5000; L += 7 {
		for _, f := range []interval.Flags{0, interval.Dirty} {
			got := DirtyAwareHybrid{}.IntervalEnergy(tech, L, f)
			want := bruteForce(L, f)
			if got > want+1e-9 {
				t.Fatalf("L=%d f=%v: policy %g above brute-force optimum %g", L, f, got, want)
			}
		}
	}
	// Also spot-check far beyond the dirty inflection point.
	for _, L := range []uint64{50000, 1e6, 1e8} {
		for _, f := range []interval.Flags{0, interval.Dirty} {
			got := DirtyAwareHybrid{}.IntervalEnergy(tech, L, f)
			want := bruteForce(L, f)
			if got > want+1e-6*want {
				t.Fatalf("L=%d f=%v: policy %g above optimum %g", L, f, got, want)
			}
		}
	}
}
