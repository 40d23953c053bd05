package leakage

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// testPolicies returns one representative per builtin policy type,
// covering every threshold shape: defaults, overrides below/above the
// inflection points, degenerate windows.
func testPolicies(t power.Technology) []Policy {
	_, b, err := t.InflectionPoints()
	if err != nil {
		b = 5000
	}
	return []Policy{
		AlwaysActive{},
		OPTDrowsy{},
		OPTSleep{Theta: 0},
		OPTSleep{Theta: 10},
		OPTSleep{Theta: uint64(b)},
		OPTSleep{Theta: 10000},
		SleepDecay{Theta: 0},
		SleepDecay{Theta: 10000},
		OPTHybrid{},
		OPTHybrid{SleepTheta: 3},
		OPTHybrid{SleepTheta: 10000},
		PeriodicDrowsy{Window: 0},
		PeriodicDrowsy{Window: 7},
		PeriodicDrowsy{Window: 2000},
		PrefetchA(),
		PrefetchB(),
		AMCSleep{Theta: 10000, TagFraction: 0.06},
		AMCSleep{Theta: 0, TagFraction: 0.5},
		DirtyAwareHybrid{},
		DeadAwareHybrid{},
		Coloring{Colors: 8, Frames: 1024},
		Coloring{Colors: 1024, Frames: 1024},
		Coloring{Colors: 0, Frames: 0}, // degenerate: never gates
		WayMemo{Accuracy: 0.9},
		WayMemo{Accuracy: 1},
		WayMemo{Accuracy: 0},
	}
}

// curveTestLengths returns the probe lengths for one curve: every piece
// end's integer neighborhood plus a spread of interior points, so every
// piece and every boundary decision is exercised.
func curveTestLengths(c Curve) []uint64 {
	set := map[uint64]bool{}
	add := func(l float64) {
		if l < 1 || math.IsInf(l, 0) || math.IsNaN(l) || l > 1e15 {
			return
		}
		u := uint64(l)
		for d := -2; d <= 2; d++ {
			if v := int64(u) + int64(d); v >= 1 {
				set[uint64(v)] = true
			}
		}
	}
	for _, pc := range c.p[:c.n] {
		add(pc.end)
		add(math.Ceil(pc.end))
	}
	for _, l := range []uint64{1, 2, 3, 5, 6, 7, 36, 37, 38, 100, 1000, 1057, 5088, 10327, 10328, 10329, 103084, 1 << 20, 1 << 40} {
		set[l] = true
	}
	out := make([]uint64, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	return out
}

func relClose(a, b, relTol, absTol float64) bool {
	d := math.Abs(a - b)
	if d <= absTol {
		return true
	}
	return d <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// TestClosedFormsMatchReference checks every builtin policy's
// EnergyCurve pointwise against its IntervalEnergy and IntervalMisses, for
// every flags value, at every builtin technology node, on lengths
// bracketing every piece end. Energies may differ only by float
// regrouping (tight relative tolerance); the misses the same pieces carry
// must match exactly — they sit on the very same threshold comparisons.
func TestClosedFormsMatchReference(t *testing.T) {
	for _, tech := range power.Technologies() {
		for _, pol := range testPolicies(tech) {
			cf, ok := pol.(ClosedForm)
			if !ok {
				t.Fatalf("%s (%T) does not declare a ClosedForm", pol.Name(), pol)
			}
			mm := pol.(MissModel)
			for f := 0; f < 64; f++ {
				flags := interval.Flags(f)
				curve, ok := cf.EnergyCurve(tech, flags)
				if !ok || !curve.valid() {
					t.Fatalf("%s flags %v: no valid curve (ok=%v, %d pieces)", pol.Name(), flags, ok, curve.n)
				}
				pieces := curve.p[:curve.n]
				for i := 1; i < len(pieces); i++ {
					if !(pieces[i].end > pieces[i-1].end) {
						t.Fatalf("%s flags %v: piece ends not ascending: %+v", pol.Name(), flags, pieces)
					}
				}
				if last := pieces[len(pieces)-1].end; !math.IsInf(last, 1) {
					t.Fatalf("%s flags %v: last piece ends at %g, not +Inf", pol.Name(), flags, last)
				}
				for _, L := range curveTestLengths(curve) {
					want := pol.IntervalEnergy(tech, L, flags)
					got := curve.Eval(float64(L))
					if !relClose(got, want, 1e-9, 1e-9) {
						t.Fatalf("%s @%s flags=%v L=%d: curve %.17g, reference %.17g",
							pol.Name(), tech.Name, flags, L, got, want)
					}
					wantMiss := mm.IntervalMisses(tech, L, flags)
					if gotMiss := curve.at(float64(L)).misses; gotMiss != wantMiss {
						t.Fatalf("%s @%s flags=%v L=%d: curve misses %g, reference %g",
							pol.Name(), tech.Name, flags, L, gotMiss, wantMiss)
					}
				}
			}
		}
	}
}

// randomDistribution builds a distribution with dense and tail buckets
// across random flags classes; integer lengths straddle every builtin
// threshold regime.
func randomDistribution(rng *rand.Rand) *interval.Distribution {
	d := interval.NewDistribution(uint32(rng.Intn(64)+1), 1<<22)
	n := rng.Intn(300) + 1
	for i := 0; i < n; i++ {
		var length uint64
		switch rng.Intn(4) {
		case 0:
			length = uint64(rng.Intn(64)) + 1 // around the overheads
		case 1:
			length = uint64(rng.Intn(8192)) + 1 // dense row range
		case 2:
			length = uint64(rng.Intn(200000)) + 8000 // tail, around b
		default:
			length = uint64(rng.Intn(1 << 21)) // deep tail
		}
		if length == 0 {
			length = 1
		}
		d.Add(length, interval.Flags(rng.Intn(64)), uint64(rng.Intn(50)+1))
	}
	return d
}

// TestEvaluateAggregateMatchesReference is the randomized property test
// of the tentpole: fast-path and reference evaluations agree to
// ulp-scale relative error on every builtin policy over randomized
// distributions, and the induced-miss folds agree exactly. Run it under
// -race (make race) to also pin the aggregates' concurrent-read safety.
func TestEvaluateAggregateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	techs := power.Technologies()
	for iter := 0; iter < 60; iter++ {
		d := randomDistribution(rng)
		agg := interval.NewAggregates(d)
		tech := techs[rng.Intn(len(techs))]
		for _, pol := range testPolicies(tech) {
			ref, refErr := Evaluate(tech, d, pol)
			fast, fastErr := EvaluateAggregate(tech, agg, pol)
			if (refErr == nil) != (fastErr == nil) {
				t.Fatalf("iter %d %s: error mismatch: ref %v, fast %v", iter, pol.Name(), refErr, fastErr)
			}
			if refErr != nil {
				continue
			}
			if fast.Policy != ref.Policy || fast.Baseline != ref.Baseline {
				t.Fatalf("iter %d %s: metadata mismatch: %+v vs %+v", iter, pol.Name(), fast, ref)
			}
			if !relClose(fast.Energy, ref.Energy, 1e-9, 1e-12) {
				t.Fatalf("iter %d %s @%s: energy fast %.17g, ref %.17g (rel %.3g)",
					iter, pol.Name(), tech.Name, fast.Energy, ref.Energy,
					math.Abs(fast.Energy-ref.Energy)/math.Abs(ref.Energy))
			}
			if math.Abs(fast.Savings-ref.Savings) > 1e-9 {
				t.Fatalf("iter %d %s: savings fast %.17g, ref %.17g", iter, pol.Name(), fast.Savings, ref.Savings)
			}
			refMiss, refMissErr := InducedMissRate(tech, d, pol)
			fastMiss, fastMissErr := InducedMissRateAggregate(tech, agg, pol)
			if (refMissErr == nil) != (fastMissErr == nil) {
				t.Fatalf("iter %d %s: miss error mismatch: ref %v, fast %v", iter, pol.Name(), refMissErr, fastMissErr)
			}
			if refMissErr == nil && !relClose(fastMiss, refMiss, 1e-12, 1e-12) {
				t.Fatalf("iter %d %s: miss rate fast %.17g, ref %.17g", iter, pol.Name(), fastMiss, refMiss)
			}
		}
	}
}

// TestEvaluateManyMatchesEvaluateAll pins the batched kernel against the
// reference batch API on a shared distribution.
func TestEvaluateManyMatchesEvaluateAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDistribution(rng)
	agg := interval.NewAggregates(d)
	tech := power.Default()
	pols := testPolicies(tech)
	ref, err := EvaluateAll(tech, d, pols)
	if err != nil {
		t.Fatalf("EvaluateAll: %v", err)
	}
	fast, err := EvaluateMany(tech, agg, pols)
	if err != nil {
		t.Fatalf("EvaluateMany: %v", err)
	}
	if len(fast) != len(ref) {
		t.Fatalf("length mismatch: %d vs %d", len(fast), len(ref))
	}
	for i := range ref {
		if fast[i].Policy != ref[i].Policy || !relClose(fast[i].Energy, ref[i].Energy, 1e-9, 1e-12) {
			t.Fatalf("policy %d (%s): %+v vs %+v", i, ref[i].Policy, fast[i], ref[i])
		}
	}
}

// noClosedForm is a custom policy without a declared closed form: the
// fast path must transparently fall back to the reference walk.
type noClosedForm struct{}

func (noClosedForm) Name() string { return "custom-opaque" }
func (noClosedForm) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	// Deliberately non-affine in length.
	return t.PActive * math.Sqrt(float64(length))
}

func TestEvaluateAggregateFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDistribution(rng)
	agg := interval.NewAggregates(d)
	tech := power.Default()
	ref, err := Evaluate(tech, d, noClosedForm{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	fast, err := EvaluateAggregate(tech, agg, noClosedForm{})
	if err != nil {
		t.Fatalf("EvaluateAggregate: %v", err)
	}
	if fast != ref {
		t.Fatalf("fallback must be bit-identical to the reference: %+v vs %+v", fast, ref)
	}
	if _, err := InducedMissesAggregate(tech, agg, noClosedForm{}); !errors.Is(err, ErrNoMissModel) {
		t.Fatalf("want ErrNoMissModel for a policy without a miss model, got %v", err)
	}
}

// stairs is a test-only policy whose composed curve needs five pieces,
// one past maxPieces: energy and misses step up by one at each of four
// cuts.
type stairs struct{}

var stairCuts = [...]float64{10, 100, 1000, 10000}

func (stairs) Name() string { return "stairs" }

func (stairs) IntervalMisses(_ power.Technology, length uint64, _ interval.Flags) float64 {
	var steps float64
	for _, cut := range stairCuts {
		if float64(length) > cut {
			steps++
		}
	}
	return steps
}

func (s stairs) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	return t.PActive*float64(length) + s.IntervalMisses(t, length, flags)
}

func (stairs) EnergyCurve(t power.Technology, _ interval.Flags) (Curve, bool) {
	c := affine(float64(len(stairCuts)), t.PActive).plus(0, 0, float64(len(stairCuts)))
	for i := len(stairCuts) - 1; i >= 0; i-- {
		c = switchAt(stairCuts[i], affine(float64(i), t.PActive).plus(0, 0, float64(i)), c)
	}
	return c, true
}

// TestOverflowingCurveFallsBack pins the maxPieces bound: a composition
// past it yields an invalid curve, and both aggregate kernels then take
// the reference walk for the whole distribution.
func TestOverflowingCurveFallsBack(t *testing.T) {
	tech := power.Default()
	if c, _ := (stairs{}).EnergyCurve(tech, 0); c.valid() {
		t.Fatalf("a %d-piece composition must be invalid, got %d pieces", maxPieces+1, c.n)
	}
	rng := rand.New(rand.NewSource(5))
	d := randomDistribution(rng)
	agg := interval.NewAggregates(d)
	ref, err := Evaluate(tech, d, stairs{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	fast, err := EvaluateAggregate(tech, agg, stairs{})
	if err != nil {
		t.Fatalf("EvaluateAggregate: %v", err)
	}
	if fast != ref {
		t.Fatalf("overflow must fall back bit-identically: %+v vs %+v", fast, ref)
	}
	refMiss, err := InducedMisses(tech, d, stairs{})
	if err != nil {
		t.Fatalf("InducedMisses: %v", err)
	}
	fastMiss, err := InducedMissesAggregate(tech, agg, stairs{})
	if err != nil || fastMiss != refMiss {
		t.Fatalf("InducedMissesAggregate = %v, %v; want %v", fastMiss, err, refMiss)
	}
}

// TestAggregateKernelsDoNotAllocate is the dynamic twin of the hotalloc
// contract on EvaluateAggregate/EvaluateMany: curves are built inline, so
// evaluating a builtin whose Name is constant allocates nothing, the miss
// fold (which never names the policy) allocates nothing for any builtin,
// and EvaluateMany allocates only its result slice.
func TestAggregateKernelsDoNotAllocate(t *testing.T) {
	agg := interval.NewAggregates(randomDistribution(rand.New(rand.NewSource(11))))
	constNamed := []Policy{AlwaysActive{}, OPTDrowsy{}, OPTHybrid{}, PrefetchA(), PrefetchB(), DirtyAwareHybrid{}, DeadAwareHybrid{}}
	for _, tech := range power.Technologies() {
		for _, pol := range constNamed {
			if n := testing.AllocsPerRun(10, func() { _, _ = EvaluateAggregate(tech, agg, pol) }); n != 0 {
				t.Errorf("EvaluateAggregate(%s @%s): %v allocs, want 0", pol.Name(), tech.Name, n)
			}
		}
		for _, pol := range testPolicies(tech) {
			if n := testing.AllocsPerRun(10, func() { _, _ = InducedMissesAggregate(tech, agg, pol) }); n != 0 {
				t.Errorf("InducedMissesAggregate(%s @%s): %v allocs, want 0", pol.Name(), tech.Name, n)
			}
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = EvaluateMany(tech, agg, constNamed) }); n != 1 {
			t.Errorf("EvaluateMany @%s: %v allocs, want 1 (the result slice)", tech.Name, n)
		}
	}
}

// TestEvaluateAggregateErrors pins the sentinel parity with Evaluate.
func TestEvaluateAggregateErrors(t *testing.T) {
	tech := power.Default()
	if _, err := EvaluateAggregate(tech, nil, AlwaysActive{}); !errors.Is(err, ErrNilDistribution) {
		t.Fatalf("nil aggregates: want ErrNilDistribution, got %v", err)
	}
	empty := interval.NewAggregates(interval.NewDistribution(4, 0))
	if _, err := EvaluateAggregate(tech, empty, AlwaysActive{}); !errors.Is(err, ErrEmptyDistribution) {
		t.Fatalf("zero mass: want ErrEmptyDistribution, got %v", err)
	}
	if _, err := EvaluateAggregate(tech, empty, nil); !errors.Is(err, ErrNilPolicy) {
		t.Fatalf("nil policy: want ErrNilPolicy, got %v", err)
	}
	if _, err := InducedMissRateAggregate(tech, empty, AlwaysActive{}); !errors.Is(err, ErrEmptyDistribution) {
		t.Fatalf("no intervals: want ErrEmptyDistribution, got %v", err)
	}
}
