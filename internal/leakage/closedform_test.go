package leakage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// testPolicies returns one representative per builtin policy type,
// covering every threshold shape: defaults, overrides below/above the
// inflection points, degenerate windows. It also carries the exact
// parameters the extension tables evaluate through the aggregate kernel:
// PeriodicDrowsy{4000}, and SleepDecay and AMCSleep{TagFraction: 0.06}
// at every DecayThetaLadder theta.
func testPolicies(t power.Technology) []Policy {
	_, b, err := t.InflectionPoints()
	if err != nil {
		b = 5000
	}
	ladder := []Policy{PeriodicDrowsy{Window: 4000}}
	for _, theta := range DecayThetaLadder() {
		ladder = append(ladder, SleepDecay{Theta: theta}, AMCSleep{Theta: theta, TagFraction: 0.06})
	}
	return append([]Policy{
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
	}, ladder...)
}

// closedFormTechnologies returns every builtin technology node plus the
// default node at the write-back ablation's WBEnergy/CD ratios, so the
// curves' write-back terms are compared with the reference too (every
// builtin node has WBEnergy = 0).
func closedFormTechnologies() []power.Technology {
	techs := power.Technologies()
	for _, ratio := range []float64{0.25, 0.5, 1.0} {
		tech := power.Default()
		tech.WBEnergy = ratio * tech.CD
		techs = append(techs, tech)
	}
	return techs
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
// every flags value, at every builtin technology node and at the
// write-back ablation's nodes, on lengths bracketing every piece end. No
// builtin policy may lack a valid curve for any flags class: the aggregate
// kernels would reject it. Energies may differ
// only by float regrouping (tight relative tolerance); the misses the same
// pieces carry must match exactly — they sit on the very same threshold
// comparisons.
func TestClosedFormsMatchReference(t *testing.T) {
	for _, tech := range closedFormTechnologies() {
		for _, pol := range testPolicies(tech) {
			cp, ok := pol.(curvePolicy)
			if !ok {
				t.Fatalf("%s (%T) has no energy curve", pol.Name(), pol)
			}
			mm := pol.(MissModel)
			for f := 0; f < 64; f++ {
				flags := interval.Flags(f)
				curve := cp.EnergyCurve(tech, flags)
				if !curve.valid() {
					t.Fatalf("%s flags %v: no valid curve (%d pieces)", pol.Name(), flags, curve.n)
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

// missRates answers ps's induced-miss rates over agg through a Compiled
// with no aggregates, so every curve is built inline.
func missRates(t *testing.T, tech power.Technology, agg *interval.Aggregates, ps ...Policy) []float64 {
	t.Helper()
	cp, err := Compile(tech, ps)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	_, rates, err := cp.EvaluateMisses(agg)
	if err != nil {
		t.Fatalf("EvaluateMisses: %v", err)
	}
	return rates
}

// TestEvaluateAggregateMatchesReference is the randomized property test
// of the aggregate kernel: single-policy EvaluateMany and the reference
// Evaluate agree to ulp-scale relative error on every builtin policy over
// randomized distributions, and so do the induced-miss folds. The whole
// policy list in one EvaluateMany call must equal the single-policy
// calls bit for bit. Run it under -race (make race) to also pin the
// aggregates' concurrent-read safety.
func TestEvaluateAggregateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	techs := power.Technologies()
	for iter := 0; iter < 60; iter++ {
		d := randomDistribution(rng)
		agg := interval.NewAggregates(d)
		tech := techs[rng.Intn(len(techs))]
		pols := testPolicies(tech)
		many, manyErr := EvaluateMany(tech, agg, pols)
		for i, pol := range pols {
			ref, refErr := Evaluate(tech, d, pol)
			fastAll, fastErr := EvaluateMany(tech, agg, []Policy{pol})
			if (refErr == nil) != (fastErr == nil) || (fastErr == nil) != (manyErr == nil) {
				t.Fatalf("iter %d %s: error mismatch: ref %v, fast %v, many %v", iter, pol.Name(), refErr, fastErr, manyErr)
			}
			if refErr != nil {
				continue
			}
			fast := fastAll[0]
			if many[i] != fast {
				t.Fatalf("iter %d %s: the batched call %+v != the single-policy call %+v", iter, pol.Name(), many[i], fast)
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
			refMiss, err := InducedMissRate(tech, d, pol)
			if err != nil {
				t.Fatalf("iter %d %s: InducedMissRate: %v", iter, pol.Name(), err)
			}
			if fastMiss := missRates(t, tech, agg, pol)[0]; !relClose(fastMiss, refMiss, 1e-12, 1e-12) {
				t.Fatalf("iter %d %s: miss rate fast %.17g, ref %.17g", iter, pol.Name(), fastMiss, refMiss)
			}
		}
	}
}

// TestEvaluateManyMatchesEvaluateAll pins the whole-list EvaluateMany
// call on a shared distribution against the reference Evaluate run on
// every policy of the list in turn.
func TestEvaluateManyMatchesEvaluateAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDistribution(rng)
	agg := interval.NewAggregates(d)
	tech := power.Default()
	pols := testPolicies(tech)
	fast, err := EvaluateMany(tech, agg, pols)
	if err != nil {
		t.Fatalf("EvaluateMany: %v", err)
	}
	if len(fast) != len(pols) {
		t.Fatalf("length mismatch: %d results for %d policies", len(fast), len(pols))
	}
	for i, pol := range pols {
		ref, err := Evaluate(tech, d, pol)
		if err != nil {
			t.Fatalf("Evaluate %s: %v", pol.Name(), err)
		}
		if fast[i].Policy != ref.Policy || !relClose(fast[i].Energy, ref.Energy, 1e-9, 1e-12) {
			t.Fatalf("policy %d (%s): %+v vs %+v", i, ref.Policy, fast[i], ref)
		}
	}
}

// noClosedForm is a custom policy without an energy curve: the aggregate
// kernels reject it, and only the reference walk answers it.
type noClosedForm struct{}

func (noClosedForm) Name() string { return "custom-opaque" }
func (noClosedForm) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	// Deliberately non-affine in length.
	return t.PActive * math.Sqrt(float64(length))
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

func (s stairs) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	s.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

func (stairs) build(c *Curve, e *curveEnv, _ interval.Flags) {
	for i, cut := range stairCuts {
		c.push(piece{end: cut, cnst: float64(i), slope: e.PActive, misses: float64(i)})
	}
	c.push(piece{end: inf, cnst: float64(len(stairCuts)), slope: e.PActive, misses: float64(len(stairCuts))})
}

func (stairs) reads(power.Technology) interval.Flags { return 0 }

// TestKernelsRejectPoliciesWithoutCurves pins the kernels' closed set.
// A policy without an energy curve gets ErrNoClosedForm naming its index,
// from EvaluateMany and from Compile, before any folding. A curve past
// maxPieces is an error naming the policy and the flags value: from
// EvaluateMany, from Compile when the flags value is present in the
// aggregates compiled, and from Compiled.Evaluate and EvaluateMisses when
// it is not. The reference walks still answer both policies.
func TestKernelsRejectPoliciesWithoutCurves(t *testing.T) {
	tech := power.Default()
	if c := (stairs{}).EnergyCurve(tech, 0); c.valid() {
		t.Fatalf("a %d-piece composition must be invalid, got %d pieces", maxPieces+1, c.n)
	}
	d := randomDistribution(rand.New(rand.NewSource(5)))
	agg := interval.NewAggregates(d)
	for _, p := range []Policy{noClosedForm{}, stairs{}} {
		if _, err := Evaluate(tech, d, p); err != nil {
			t.Errorf("Evaluate(%s): %v", p.Name(), err)
		}
	}
	if _, err := InducedMissRate(tech, d, stairs{}); err != nil {
		t.Errorf("InducedMissRate(stairs): %v", err)
	}
	if _, err := InducedMissRate(tech, d, noClosedForm{}); !errors.Is(err, ErrNoMissModel) {
		t.Errorf("InducedMissRate(custom-opaque): %v, want ErrNoMissModel", err)
	}

	ps := []Policy{OPTHybrid{}, noClosedForm{}}
	wantNo := func(kernel string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNoClosedForm) || !strings.Contains(err.Error(), "policy 1 (custom-opaque)") {
			t.Errorf("%s: %v, want ErrNoClosedForm naming policy 1 (custom-opaque)", kernel, err)
		}
	}
	_, err := EvaluateMany(tech, agg, ps)
	wantNo("EvaluateMany", err)
	_, err = Compile(tech, ps, agg)
	wantNo("Compile", err)
	_, err = Compile(tech, ps)
	wantNo("Compile without aggregates", err)

	ps = []Policy{OPTHybrid{}, stairs{}}
	first := agg.Classes()[0].Flags
	want := fmt.Sprintf("leakage: policy 1 (stairs): curve for flags %v needs more than %d pieces", first, maxPieces)
	wantOverflow := func(kernel string, err error) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", kernel, err, want)
		}
	}
	_, err = EvaluateMany(tech, agg, ps)
	wantOverflow("EvaluateMany", err)
	_, err = Compile(tech, ps, agg)
	wantOverflow("Compile", err)
	cp, err := Compile(tech, ps)
	if err != nil {
		t.Fatalf("Compile with no flags values present: %v", err)
	}
	_, err = cp.Evaluate(agg)
	wantOverflow("Compiled.Evaluate", err)
	_, _, err = cp.EvaluateMisses(agg)
	wantOverflow("Compiled.EvaluateMisses", err)
}

// sweepLadder is one sweep scheme's dense theta ladder.
type sweepLadder struct {
	scheme string
	pols   []Policy
}

// sweepLadders builds a 256-point theta ladder of each sweep scheme at
// tech through the default registry, as a dense parameter sweep does,
// followed by memoLadders.
func sweepLadders(t *testing.T, tech power.Technology) []sweepLadder {
	t.Helper()
	var out []sweepLadder
	for _, scheme := range []string{"opt-sleep", "opt-hybrid", "sleep-decay"} {
		l := sweepLadder{scheme: scheme}
		for i := 0; i < 256; i++ {
			l.pols = append(l.pols, buildTheta(t, tech, scheme, uint64(1000+400*i)))
		}
		out = append(out, l)
	}
	return append(out, memoLadders(t, tech)...)
}

// memoLadders builds two 256-policy lists aimed at the fold's cut memo:
// an OPT-Hybrid ladder that names each theta twice in a row, so its
// sleep cuts hit the memo too, and OPT-Hybrid at two thetas followed by
// OPT-Drowsy, which share the drowsy cut at piece 0 and differ after it,
// so each piece 1 misses against the previous hybrid's cut.
func memoLadders(t *testing.T, tech power.Technology) []sweepLadder {
	t.Helper()
	twice := sweepLadder{scheme: "opt-hybrid, each theta twice"}
	mixed := sweepLadder{scheme: "opt-hybrid at two thetas, then opt-drowsy"}
	for i := 0; i < 256; i++ {
		twice.pols = append(twice.pols, buildTheta(t, tech, "opt-hybrid", uint64(1000+400*(i/2))))
		switch theta := uint64(1000 + 400*(i/3)); i % 3 {
		case 0:
			mixed.pols = append(mixed.pols, buildTheta(t, tech, "opt-hybrid", theta))
		case 1:
			mixed.pols = append(mixed.pols, buildTheta(t, tech, "opt-hybrid", 2*theta))
		default:
			mixed.pols = append(mixed.pols, OPTDrowsy{})
		}
	}
	return []sweepLadder{twice, mixed}
}

// buildTheta builds scheme with its theta parameter through the default
// registry.
func buildTheta(t *testing.T, tech power.Technology, scheme string, theta uint64) Policy {
	t.Helper()
	pol, err := DefaultRegistry().Build(PolicySpec{Scheme: scheme, Params: Params{"theta": Uint(theta)}}, tech)
	if err != nil {
		t.Fatalf("Build %s: %v", scheme, err)
	}
	return pol
}

// TestAggregateKernelsDoNotAllocate is the dynamic twin of the hotalloc
// contract on EvaluateMany/Compiled.Evaluate: curves are built inline, so
// EvaluateMany over builtins whose Name is constant allocates only its
// result slice, one policy or many, and Compiled allocates only its
// result slices (EvaluateMisses adds the rates) for any builtin. Compile
// itself allocates nothing per policy, and per distinct curve row only
// that row's two slices: no curve build allocates.
func TestAggregateKernelsDoNotAllocate(t *testing.T) {
	agg := interval.NewAggregates(randomDistribution(rand.New(rand.NewSource(11))))
	constNamed := []Policy{AlwaysActive{}, OPTDrowsy{}, OPTHybrid{}, PrefetchA(), PrefetchB(), DirtyAwareHybrid{}, DeadAwareHybrid{}}
	for _, tech := range power.Technologies() {
		for _, pol := range constNamed {
			one := []Policy{pol}
			if n := testing.AllocsPerRun(10, func() { _, _ = EvaluateMany(tech, agg, one) }); n != 1 {
				t.Errorf("EvaluateMany(%s @%s): %v allocs, want 1 (the result slice)", pol.Name(), tech.Name, n)
			}
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = EvaluateMany(tech, agg, constNamed) }); n != 1 {
			t.Errorf("EvaluateMany @%s: %v allocs, want 1 (the result slice)", tech.Name, n)
		}
		// Compiled names no policy, so Evaluate allocates only its result
		// slice for parameterized names too, whether a class's curves come
		// from the table or are built inline.
		for _, aggs := range [][]*interval.Aggregates{{agg}, nil} {
			cp, err := Compile(tech, testPolicies(tech), aggs...)
			if err != nil {
				t.Fatalf("Compile @%s: %v", tech.Name, err)
			}
			if n := testing.AllocsPerRun(10, func() { _, _ = cp.Evaluate(agg) }); n != 1 {
				t.Errorf("Compiled.Evaluate @%s (%d aggregates compiled): %v allocs, want 1 (the result slice)", tech.Name, len(aggs), n)
			}
			if n := testing.AllocsPerRun(10, func() { _, _, _ = cp.EvaluateMisses(agg) }); n != 2 {
				t.Errorf("Compiled.EvaluateMisses @%s (%d aggregates compiled): %v allocs, want 2 (the result slices)", tech.Name, len(aggs), n)
			}
		}
		// Compile's fixed eight: the Compiled, its policy slice, the row
		// list, the per-policy edge bits and masks, the curve env, the
		// staging curve, spans and pieces.
		for _, l := range sweepLadders(t, tech) {
			cp, err := Compile(tech, l.pols, agg)
			if err != nil {
				t.Fatalf("Compile %s @%s: %v", l.scheme, tech.Name, err)
			}
			want := 8 + 2*len(cp.tab.rows)
			if n := testing.AllocsPerRun(10, func() { _, _ = Compile(tech, l.pols, agg) }); n != float64(want) {
				t.Errorf("Compile(%d-point %s @%s): %v allocs, want %d (8 fixed, 2 per each of %d rows)",
					len(l.pols), l.scheme, tech.Name, n, want, len(cp.tab.rows))
			}
		}
	}
}

// TestCompileSharesRows pins the curve table's row sharing. Every flags
// value present maps to a row whose curves equal, piece for piece, that
// policy's EnergyCurve for the flags value, and evaluating through the
// shared rows equals EvaluateMany (==, less the names Compiled leaves
// empty) on every aggregate. An OPT-Sleep curve depends only on a few
// flag bits, so its ladder keeps fewer rows than flags values present.
func TestCompileSharesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var aggs []*interval.Aggregates
	for i := 0; i < 4; i++ {
		aggs = append(aggs, interval.NewAggregates(randomDistribution(rng)))
	}
	for _, tech := range closedFormTechnologies() {
		for _, l := range sweepLadders(t, tech) {
			cp, err := Compile(tech, l.pols, aggs...)
			if err != nil {
				t.Fatalf("Compile %s @%s: %v", l.scheme, tech.Name, err)
			}
			present := 0
			for f, r := range cp.tab.rowOf {
				if r == 0 {
					continue
				}
				present++
				row := &cp.tab.rows[r-1]
				for i, pol := range l.pols {
					c := pol.(curvePolicy).EnergyCurve(tech, interval.Flags(f))
					sp := row.spans[i]
					if got := row.pieces[sp.off : sp.off+sp.n]; !slices.Equal(got, c.p[:c.n]) {
						t.Fatalf("%s @%s flags %v: row %d holds %+v, EnergyCurve %+v", pol.Name(), tech.Name, interval.Flags(f), r, got, c.p[:c.n])
					}
				}
			}
			if l.scheme == "opt-sleep" && len(cp.tab.rows) >= present {
				t.Errorf("%s @%s: %d rows for %d flags values present, want fewer", l.scheme, tech.Name, len(cp.tab.rows), present)
			}
			for ai, agg := range aggs {
				got, err := cp.Evaluate(agg)
				if err != nil {
					t.Fatalf("Compiled.Evaluate: %v", err)
				}
				want, err := EvaluateMany(tech, agg, l.pols)
				if err != nil {
					t.Fatalf("EvaluateMany: %v", err)
				}
				for i := range want {
					want[i].Policy = ""
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s @%s aggregate %d: shared rows evaluate differently from EvaluateMany", l.scheme, tech.Name, ai)
				}
			}
		}
	}
}

// TestCompiledMatchesEvaluateMany pins the many-aggregate kernel to the
// one-aggregate kernel, == on every field: Compiled.Evaluate and
// Compiled.EvaluateMisses against EvaluateMany over the whole list and
// over each policy alone, for every builtin and both memoLadders lists
// at every technology, over random distributions. Compiled results equal
// the single-policy one with an empty Policy; EvaluateMany's keep the
// name. A one-policy fold never reuses a cut, so the lists' shared and
// repeated cuts pin the fold's cut memo, hits and misses alike, to a
// fold without one. The compiled sets cover curves all from the
// table, classes absent at compile time (built inline), and no table at
// all; the aggregates include zero-mass and nil ones, whose errors must
// read exactly like EvaluateMany's. On the miss axis every table-backed
// rate must equal the inline Compile(tech, pols) rate (==) and agree with
// the reference InducedMissRate to ulp scale.
func TestCompiledMatchesEvaluateMany(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	narrow := interval.NewDistribution(8, 1<<20)
	for i := 0; i < 200; i++ {
		narrow.Add(uint64(rng.Intn(300000))+1, interval.Flags(rng.Intn(2))*interval.Dirty, uint64(rng.Intn(9))+1)
	}
	narrowAgg := interval.NewAggregates(narrow)
	for _, tech := range power.Technologies() {
		wideDists := []*interval.Distribution{randomDistribution(rng), randomDistribution(rng)}
		wide := []*interval.Aggregates{interval.NewAggregates(wideDists[0]), interval.NewAggregates(wideDists[1])}
		evalDists := append([]*interval.Distribution{narrow, interval.NewDistribution(4, 0), nil}, wideDists...)
		evalAggs := append([]*interval.Aggregates{narrowAgg, interval.NewAggregates(evalDists[1]), nil}, wide...)
		lists := [][]Policy{testPolicies(tech)}
		for _, l := range memoLadders(t, tech) {
			lists = append(lists, l.pols)
		}
		for _, pols := range lists {
			inline, err := Compile(tech, pols)
			if err != nil {
				t.Fatalf("Compile @%s: %v", tech.Name, err)
			}
			for ci, compiled := range [][]*interval.Aggregates{wide, {narrowAgg, nil}, nil} {
				cp, err := Compile(tech, pols, compiled...)
				if err != nil {
					t.Fatalf("Compile @%s: %v", tech.Name, err)
				}
				for ai, agg := range evalAggs {
					evs, err := cp.Evaluate(agg)
					mevs, rates, merr := cp.EvaluateMisses(agg)
					_, inlineRates, inlineErr := inline.EvaluateMisses(agg)
					many, manyErr := EvaluateMany(tech, agg, pols)
					for i, pol := range pols {
						one, wantErr := EvaluateMany(tech, agg, []Policy{pol})
						if wantErr != nil {
							for name, got := range map[string]error{"Evaluate": err, "EvaluateMisses": merr, "inline EvaluateMisses": inlineErr, "EvaluateMany": manyErr} {
								if got == nil || got.Error() != wantErr.Error() {
									t.Fatalf("@%s agg %d %s: %s error %v, want %v", tech.Name, ai, pol.Name(), name, got, wantErr)
								}
							}
							continue
						}
						if err != nil || merr != nil || inlineErr != nil || manyErr != nil {
							t.Fatalf("@%s agg %d %s: unexpected errors %v / %v / %v / %v", tech.Name, ai, pol.Name(), err, merr, inlineErr, manyErr)
						}
						want := one[0]
						nameless := want
						nameless.Policy = ""
						if evs[i] != nameless || mevs[i] != nameless || many[i] != want {
							t.Fatalf("@%s agg %d policy %d %s: Evaluate %#v, EvaluateMisses %#v, EvaluateMany %#v; single-policy EvaluateMany %#v",
								tech.Name, ai, i, pol.Name(), evs[i], mevs[i], many[i], want)
						}
						if got, in := rates[i], inlineRates[i]; got != in {
							t.Fatalf("@%s agg %d policy %d %s: miss rate %v, inline %v", tech.Name, ai, i, pol.Name(), got, in)
						}
						if ci > 0 {
							continue // the rate equals the inline one, checked against the reference once
						}
						refRate, refErr := InducedMissRate(tech, evalDists[ai], pol)
						if refErr != nil || !relClose(rates[i], refRate, 1e-12, 1e-12) {
							t.Fatalf("@%s agg %d policy %d %s: miss rate %v, reference %v (%v)", tech.Name, ai, i, pol.Name(), rates[i], refRate, refErr)
						}
					}
				}
			}
		}
	}
	bad := power.Default()
	bad.PActive = 0
	_, want := Evaluate(bad, narrow, OPTHybrid{})
	if _, err := Compile(bad, []Policy{OPTHybrid{}}, narrowAgg); err == nil || err.Error() != want.Error() {
		t.Fatalf("Compile at an invalid technology: %v, want %v", err, want)
	}
	if _, err := EvaluateMany(bad, narrowAgg, []Policy{OPTHybrid{}}); err == nil || err.Error() != want.Error() {
		t.Fatalf("EvaluateMany at an invalid technology: %v, want %v", err, want)
	}
}

// TestCompiledSharedAcrossGoroutines evaluates through one Compiled from
// several goroutines at once, as a sweep's parallel benchmark tasks do:
// every result equals the sequential one (run under -race, it also pins
// Compiled's read-only sharing).
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tech := power.Default()
	aggs := make([]*interval.Aggregates, 4)
	for i := range aggs {
		aggs[i] = interval.NewAggregates(randomDistribution(rng))
	}
	cp, err := Compile(tech, testPolicies(tech), aggs[:3]...)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want := make([][]Evaluation, len(aggs))
	for i, agg := range aggs {
		if want[i], err = cp.Evaluate(agg); err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
	}
	errs := make(chan error, 2*len(aggs))
	for g := 0; g < 2*len(aggs); g++ {
		go func(i int) {
			got, err := cp.Evaluate(aggs[i])
			if err == nil && !slices.Equal(got, want[i]) {
				err = fmt.Errorf("aggregate %d: concurrent results differ", i)
			}
			errs <- err
		}(g % len(aggs))
	}
	for g := 0; g < 2*len(aggs); g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestNilPolicyIsNamedByIndex pins the batch kernels' nil-policy error:
// ErrNilPolicy, naming the index, not a nil-interface panic.
func TestNilPolicyIsNamedByIndex(t *testing.T) {
	agg := interval.NewAggregates(randomDistribution(rand.New(rand.NewSource(1))))
	ps := []Policy{OPTHybrid{}, nil}
	_, err := EvaluateMany(power.Default(), agg, ps)
	if !errors.Is(err, ErrNilPolicy) || !strings.Contains(err.Error(), "policy 1") {
		t.Fatalf("EvaluateMany: %v, want ErrNilPolicy naming policy 1", err)
	}
	if _, err := Compile(power.Default(), ps, agg); !errors.Is(err, ErrNilPolicy) || !strings.Contains(err.Error(), "policy 1") {
		t.Fatalf("Compile: %v, want ErrNilPolicy naming policy 1", err)
	}
}

// TestEvaluateManyErrors pins the sentinel parity with Evaluate, on
// both axes.
func TestEvaluateManyErrors(t *testing.T) {
	tech := power.Default()
	active := []Policy{AlwaysActive{}}
	if _, err := EvaluateMany(tech, nil, active); !errors.Is(err, ErrNilDistribution) {
		t.Fatalf("nil aggregates: want ErrNilDistribution, got %v", err)
	}
	emptyDist := interval.NewDistribution(4, 0)
	empty := interval.NewAggregates(emptyDist)
	if _, err := EvaluateMany(tech, empty, active); !errors.Is(err, ErrEmptyDistribution) {
		t.Fatalf("zero mass: want ErrEmptyDistribution, got %v", err)
	}
	if _, err := EvaluateMany(tech, empty, []Policy{nil}); !errors.Is(err, ErrNilPolicy) {
		t.Fatalf("nil policy: want ErrNilPolicy, got %v", err)
	}
	cp, err := Compile(tech, active)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, _, err := cp.EvaluateMisses(empty); !errors.Is(err, ErrEmptyDistribution) {
		t.Fatalf("no intervals: want ErrEmptyDistribution, got %v", err)
	}
	if _, err := InducedMissRate(tech, emptyDist, AlwaysActive{}); !errors.Is(err, ErrEmptyDistribution) {
		t.Fatalf("no intervals: want ErrEmptyDistribution from the reference, got %v", err)
	}
}
