package experiments

import (
	"context"
	"errors"
	"math"
	"testing"

	"leakbound/internal/leakage"
	"leakbound/internal/power"
)

// TestDefaultParetoSpecs: the default population covers every registered
// family exactly once and excludes the registered refinements, which
// dominate their base scheme by construction.
func TestDefaultParetoSpecs(t *testing.T) {
	specs := DefaultParetoSpecs()
	byScheme := map[string]bool{}
	for _, s := range specs {
		if byScheme[s.Scheme] {
			t.Errorf("scheme %q listed twice", s.Scheme)
		}
		byScheme[s.Scheme] = true
		reg, ok := leakage.DefaultRegistry().Lookup(s.Scheme)
		if !ok {
			t.Errorf("spec %q not registered", s.Scheme)
		}
		if reg.Refines != "" {
			t.Errorf("refinement %q (of %q) in the default population", s.Scheme, reg.Refines)
		}
	}
	for _, want := range []string{"opt-hybrid", "opt-drowsy", "coloring", "waymemo"} {
		if !byScheme[want] {
			t.Errorf("default population missing %q", want)
		}
	}
	if byScheme["opt-hybrid-dead"] || byScheme["opt-hybrid-wb"] {
		t.Error("oracle refinements must not shadow opt-hybrid in the default population")
	}
}

// TestParetoFrontierContext: the default frontier contains OPT-Hybrid,
// dominates always-active, and the marks agree with the dominance
// definition; explicitly requested refinements still evaluate.
func TestParetoFrontierContext(t *testing.T) {
	s := MustNew(WithScale(0.02))
	ctx := context.Background()
	points, err := s.ParetoFrontierContext(ctx, true, power.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 8 {
		t.Fatalf("default population has %d points, want >= 8", len(points))
	}
	var hybrid *ParetoPoint
	for i := range points {
		if points[i].Spec == "opt-hybrid" {
			hybrid = &points[i]
		}
		if points[i].Spec == "active" && points[i].Frontier {
			t.Error("always-active on the frontier despite opt-drowsy dominating it")
		}
		if points[i].NormalizedLeakage < 0 || points[i].InducedMissRate < 0 {
			t.Errorf("%s: negative axis: %+v", points[i].Spec, points[i])
		}
	}
	if hybrid == nil {
		t.Fatal("opt-hybrid missing from the default population")
	}
	if !hybrid.Frontier {
		t.Errorf("opt-hybrid not on the frontier: %+v", *hybrid)
	}
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.NormalizedLeakage <= p.NormalizedLeakage && q.InducedMissRate <= p.InducedMissRate &&
				(q.NormalizedLeakage < p.NormalizedLeakage || q.InducedMissRate < p.InducedMissRate) {
				dominated = true
				break
			}
		}
		if p.Frontier == dominated {
			t.Errorf("%s: frontier=%v but dominated=%v", p.Spec, p.Frontier, dominated)
		}
	}
	// An explicit population may include the refinements; the dead-block
	// oracle then dominates its base.
	explicit, err := s.ParetoFrontierContext(ctx, true, power.Default(), []leakage.PolicySpec{
		{Scheme: "opt-hybrid"}, {Scheme: "opt-hybrid-dead"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(explicit) != 2 || !explicit[1].Frontier {
		t.Errorf("explicit refinement population: %+v", explicit)
	}
	if _, err := s.ParetoFrontierContext(ctx, true, power.Default(),
		[]leakage.PolicySpec{{Scheme: "nope"}}); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unknown spec error = %v, want ErrUnknownPolicy", err)
	}
}

// TestParetoTableContext: the rendered table has one row per point with
// the frontier mark.
func TestParetoTableContext(t *testing.T) {
	s := MustNew(WithScale(0.02))
	tbl, err := s.ParetoTableContext(context.Background(), false, power.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tbl.Rows), len(DefaultParetoSpecs()); got != want {
		t.Errorf("pareto table has %d rows, want %d", got, want)
	}
}

// TestTechniqueFamiliesTable: the Figure-8-style related-work table has a
// row per benchmark plus the average, with the three coloring
// granularities ordered coarse to fine.
func TestTechniqueFamiliesTable(t *testing.T) {
	s := MustNew(WithScale(0.02))
	tbl, err := s.TechniqueFamiliesTableContext(context.Background(), true, power.Default())
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tbl.Rows), len(all)+1; got != want {
		t.Errorf("families table has %d rows, want %d", got, want)
	}
	if tbl.Rows[len(tbl.Rows)-1][0] != "average" {
		t.Errorf("last row is %q, want average", tbl.Rows[len(tbl.Rows)-1][0])
	}
	if got, want := len(tbl.Headers), 7; got != want {
		t.Errorf("families table has %d columns, want %d", got, want)
	}
}

// TestSweepParamContext: the generalized sweep reproduces the theta
// ladder bit for bit on opt-sleep's positional, sweeps a float parameter
// on waymemo, and rejects unknown schemes and undeclared parameters.
func TestSweepParamContext(t *testing.T) {
	s := MustNew(WithScale(0.02))
	ctx := context.Background()
	tech := power.Default()

	thetas := []uint64{1057, 5000, 20000}
	legacy, err := s.SweepThetaContext(ctx, "opt-sleep", true, tech, thetas)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]leakage.ParamValue, len(thetas))
	for i, th := range thetas {
		values[i] = leakage.Uint(th)
	}
	general, err := s.SweepParamContext(ctx, "opt-sleep", "theta", true, tech, values)
	if err != nil {
		t.Fatal(err)
	}
	if len(general) != len(legacy) {
		t.Fatalf("generalized sweep has %d points, legacy %d", len(general), len(legacy))
	}
	for i := range general {
		if general[i].Savings != legacy[i].Savings {
			t.Errorf("point %d: generalized savings %v != legacy %v", i, general[i].Savings, legacy[i].Savings)
		}
	}

	accs := []leakage.ParamValue{leakage.Float(0.5), leakage.Float(1)}
	pts, err := s.SweepParamContext(ctx, "waymemo", "accuracy", true, tech, accs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Savings > pts[1].Savings+1e-12 {
		t.Errorf("waymemo accuracy sweep not monotone: %+v", pts)
	}
	for _, p := range pts {
		if math.IsNaN(p.Savings) {
			t.Errorf("NaN savings: %+v", p)
		}
	}

	if _, err := s.SweepParamContext(ctx, "nope", "theta", true, tech, values); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unknown scheme error = %v, want ErrUnknownPolicy", err)
	}
	if _, err := s.SweepParamContext(ctx, "opt-sleep", "bogus", true, tech, values); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("undeclared parameter error = %v, want ErrUnknownPolicy", err)
	}
	if _, err := s.SweepParamContext(ctx, "opt-sleep", "theta", true, tech, nil); !errors.Is(err, ErrBadOption) {
		t.Errorf("empty sweep error = %v, want ErrBadOption", err)
	}
}

// TestPolicyTable: the registry-driven table has one row per registered
// scheme, in registration order.
func TestPolicyTable(t *testing.T) {
	tbl := PolicyTable()
	names := leakage.PolicyNames()
	if len(tbl.Rows) != len(names) {
		t.Fatalf("policy table has %d rows, want %d", len(tbl.Rows), len(names))
	}
	for i, row := range tbl.Rows {
		if row[0] != names[i] {
			t.Errorf("row %d scheme = %q, want %q", i, row[0], names[i])
		}
		if row[2] == "" {
			t.Errorf("scheme %q has no description", row[0])
		}
	}
}

// TestParsePolicyCompat pins the legacy spellings the API redesign must
// keep parsing: ignored thetas on unparameterized schemes, and the new
// named-parameter grammar resolving to the same concrete policies.
func TestParsePolicyCompat(t *testing.T) {
	tech := power.Default()
	for _, c := range []struct{ legacy, structured string }{
		{"opt-sleep@8192", "opt-sleep@theta=8192"},
		{"periodic-drowsy@4000", "periodic-drowsy@window=4000"},
		{"opt-hybrid@0", "opt-hybrid"},
	} {
		a, err := ParsePolicy(c.legacy, tech)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.legacy, err)
		}
		b, err := ParsePolicy(c.structured, tech)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.structured, err)
		}
		if a != b {
			t.Errorf("%q builds %#v, %q builds %#v", c.legacy, a, c.structured, b)
		}
	}
	// A theta on a scheme with no positional parameter is ignored for
	// backward compatibility with the pre-registry parser.
	for _, spec := range []string{"active@5", "prefetch-a@12", "opt-drowsy@123"} {
		if _, err := ParsePolicy(spec, tech); err != nil {
			t.Errorf("legacy ignored-theta spelling %q rejected: %v", spec, err)
		}
	}
	// But not silently on schemes where it would mean something else.
	if _, err := ParsePolicy("active@junk", tech); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("non-numeric ignored theta error = %v, want ErrUnknownPolicy", err)
	}
}

// TestMarkFrontier covers the dominance pass's edge cases: duplicate
// points, ties on one axis, and degenerate populations. The pass is a
// pure deterministic function of the point values — index order never
// affects who lands on the frontier.
func TestMarkFrontier(t *testing.T) {
	pt := func(leak, miss float64) ParetoPoint {
		return ParetoPoint{NormalizedLeakage: leak, InducedMissRate: miss}
	}
	cases := []struct {
		name   string
		points []ParetoPoint
		want   []bool
	}{
		{"empty", nil, nil},
		{"single", []ParetoPoint{pt(0.5, 1)}, []bool{true}},
		{"single duplicated", []ParetoPoint{pt(0.5, 1), pt(0.5, 1)}, []bool{true, true}},
		{
			// Coincident points are mutually non-dominating: both stay.
			"duplicates among others",
			[]ParetoPoint{pt(0.3, 2), pt(0.3, 2), pt(0.2, 3), pt(0.5, 2.5)},
			[]bool{true, true, true, false},
		},
		{
			// A tie on one axis with strict improvement on the other
			// dominates.
			"tie on leakage axis",
			[]ParetoPoint{pt(0.4, 1), pt(0.4, 2)},
			[]bool{true, false},
		},
		{
			"tie on miss axis",
			[]ParetoPoint{pt(0.4, 1), pt(0.3, 1)},
			[]bool{false, true},
		},
		{
			// A strict chain: only the best survives.
			"chain",
			[]ParetoPoint{pt(0.5, 3), pt(0.4, 2), pt(0.3, 1)},
			[]bool{false, false, true},
		},
		{
			// A proper frontier: each point trades one axis for the other.
			"trade-off curve",
			[]ParetoPoint{pt(0.2, 5), pt(0.3, 2), pt(0.5, 0), pt(0.4, 4), pt(0.6, 0)},
			[]bool{true, true, true, false, false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := append([]ParetoPoint(nil), tc.points...)
			markFrontier(pts)
			for i := range pts {
				if pts[i].Frontier != tc.want[i] {
					t.Fatalf("point %d (%.2f, %.2f): frontier = %v, want %v",
						i, pts[i].NormalizedLeakage, pts[i].InducedMissRate, pts[i].Frontier, tc.want[i])
				}
			}
			// Index order must not matter: reverse and re-mark.
			rev := make([]ParetoPoint, len(pts))
			for i := range pts {
				rev[len(pts)-1-i] = ParetoPoint{
					NormalizedLeakage: pts[i].NormalizedLeakage,
					InducedMissRate:   pts[i].InducedMissRate,
				}
			}
			markFrontier(rev)
			for i := range rev {
				if rev[i].Frontier != tc.want[len(pts)-1-i] {
					t.Fatalf("reversed point %d: frontier = %v, want %v",
						i, rev[i].Frontier, tc.want[len(pts)-1-i])
				}
			}
		})
	}
}
