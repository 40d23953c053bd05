package experiments

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"leakbound/internal/leakage"
	"leakbound/internal/power"
)

func TestParsePolicyNames(t *testing.T) {
	tech := power.Default()
	// Every advertised name must parse.
	for _, name := range PolicyNames() {
		pol, err := ParsePolicy(name, tech)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
			continue
		}
		if pol == nil {
			t.Errorf("ParsePolicy(%q): nil policy", name)
		}
	}
	// Case and whitespace are forgiven.
	if _, err := ParsePolicy("  OPT-Sleep  ", tech); err != nil {
		t.Errorf("case-insensitive parse failed: %v", err)
	}
	if _, err := ParsePolicy("nope", tech); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unknown policy error = %v, want ErrUnknownPolicy", err)
	}
	if _, err := ParsePolicy("opt-sleep@abc", tech); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("bad theta error = %v, want ErrUnknownPolicy", err)
	}
}

func TestParsePolicyTheta(t *testing.T) {
	tech := power.Default()
	pol, err := ParsePolicy("opt-sleep@5000", tech)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.(leakage.OPTSleep).Theta; got != 5000 {
		t.Errorf("explicit theta = %d, want 5000", got)
	}
	// Default theta is the technology's drowsy-sleep inflection point b.
	pol, err = ParsePolicy("opt-sleep", tech)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := tech.InflectionPoints()
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.(leakage.OPTSleep).Theta; got != uint64(b+0.5) {
		t.Errorf("default theta = %d, want inflection b = %d", got, uint64(b+0.5))
	}
	pol, err = ParsePolicy("periodic-drowsy", tech)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.(leakage.PeriodicDrowsy).Window; got != 2000 {
		t.Errorf("periodic-drowsy default window = %d, want 2000", got)
	}
}

func TestParseCacheSide(t *testing.T) {
	for _, s := range []string{"i", "I", "icache", "instruction", ""} {
		ic, err := ParseCacheSide(s)
		if err != nil || !ic {
			t.Errorf("ParseCacheSide(%q) = %v, %v; want true, nil", s, ic, err)
		}
	}
	for _, s := range []string{"d", "dcache", "Data"} {
		ic, err := ParseCacheSide(s)
		if err != nil || ic {
			t.Errorf("ParseCacheSide(%q) = %v, %v; want false, nil", s, ic, err)
		}
	}
	if _, err := ParseCacheSide("l2"); !errors.Is(err, ErrUnknownCacheSide) {
		t.Errorf("ParseCacheSide(l2) error = %v, want ErrUnknownCacheSide", err)
	}
}

func TestParseTechnology(t *testing.T) {
	tech, err := ParseTechnology("")
	if err != nil || tech.Name != power.Default().Name {
		t.Errorf("empty selector = %v (%v), want default node", tech.Name, err)
	}
	tech, err = ParseTechnology(" 180nm ")
	if err != nil || tech.Name != "180nm" {
		t.Errorf("180nm selector = %v (%v)", tech.Name, err)
	}
	if _, err := ParseTechnology("12nm"); !errors.Is(err, ErrUnknownTechnology) {
		t.Errorf("unknown node error = %v, want ErrUnknownTechnology", err)
	}
}

// TestEvaluateCellMatchesDirect: the served cell must agree with a direct
// leakage evaluation of the same distribution.
func TestEvaluateCellMatchesDirect(t *testing.T) {
	s := MustNew(WithScale(0.02))
	ctx := context.Background()
	tech := power.Default()
	pol, err := ParsePolicy("opt-hybrid", tech)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := s.EvaluateCellContext(ctx, "gzip", true, tech, pol)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Benchmark != "gzip" || cell.Cache != "i" || cell.Technology != tech.Name {
		t.Errorf("cell coordinates = %+v", cell)
	}
	bd, err := s.DataContext(ctx, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	want, err := leakage.Evaluate(tech, bd.ICache, pol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cell.Savings-want.Savings) > 1e-12 || math.Abs(cell.Energy-want.Energy) > 1e-9 {
		t.Errorf("cell = %+v, direct = %+v", cell, want)
	}
	if cell.Savings <= 0 || cell.Savings > 1 {
		t.Errorf("savings = %v out of (0, 1]", cell.Savings)
	}
}

// TestSweepThetaContext: sweeping opt-sleep across thetas yields one point
// per theta, and savings never increase as theta grows (a larger minimum
// sleepable interval can only shrink the sleepable fraction).
func TestSweepThetaContext(t *testing.T) {
	s := MustNew(WithScale(0.02))
	ctx := context.Background()
	thetas := []uint64{1057, 5000, 20000}
	points, err := s.SweepThetaContext(ctx, "opt-sleep", true, power.Default(), thetas)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(thetas) {
		t.Fatalf("got %d points, want %d", len(points), len(thetas))
	}
	for i, p := range points {
		if p.Theta != thetas[i] {
			t.Errorf("point %d theta = %d, want %d", i, p.Theta, thetas[i])
		}
		if p.Savings < 0 || p.Savings > 1 {
			t.Errorf("point %d savings = %v out of [0, 1]", i, p.Savings)
		}
	}
	for i := 1; i < len(points); i++ {
		if points[i].Savings > points[i-1].Savings+1e-12 {
			t.Errorf("savings increased with theta: %v -> %v", points[i-1], points[i])
		}
	}
	if _, err := s.SweepThetaContext(ctx, "opt-sleep", true, power.Default(), nil); err == nil {
		t.Error("empty theta sweep accepted")
	}
}

// sweepSetupAllocs bounds resolveSweepPolicies' allocations that do not
// scale with the value list: the resolved sweep and its one parameter map,
// and the policy slice.
const sweepSetupAllocs = 8

// TestResolveSweepPoliciesAllocs pins a sweep's set-up at one allocation
// per policy (its boxing into the interface) plus a constant: building a
// parameter map, or looking the scheme up, per value would exceed it.
func TestResolveSweepPoliciesAllocs(t *testing.T) {
	tech := power.Default()
	thetas := GeometricThetas(1500, 103084, 256)
	values := make([]leakage.ParamValue, len(thetas))
	for i, theta := range thetas {
		values[i] = leakage.Uint(theta)
	}
	for _, scheme := range []string{"opt-sleep", "opt-hybrid", "sleep-decay"} {
		var err error
		allocs := testing.AllocsPerRun(10, func() {
			_, _, err = resolveSweepPolicies(scheme, "", tech, values)
		})
		if err != nil {
			t.Fatalf("%s sweep: %v", scheme, err)
		}
		if limit := float64(len(values) + sweepSetupAllocs); allocs > limit {
			t.Errorf("%s: %d-point sweep set-up makes %.0f allocations, want at most %.0f", scheme, len(values), allocs, limit)
		}
	}
}

func TestSuiteWorkers(t *testing.T) {
	if got := MustNew(WithScale(0.02), WithWorkers(3)).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
	if got := MustNew(WithScale(0.02)).Workers(); got < 1 {
		t.Errorf("default Workers() = %d, want >= 1", got)
	}
}

func TestGeometricThetas(t *testing.T) {
	for _, tc := range []struct {
		name        string
		from, to    uint64
		points      int
		want        []uint64 // exact ladder, when short enough to spell out
		len         int
		first, last uint64
	}{
		{name: "dense-figure7", from: 1057, to: 103084, points: 256, len: 256, first: 1057, last: 103084},
		{name: "from==to", from: 5000, to: 5000, points: 256, want: []uint64{5000}},
		{name: "inverted", from: 10, to: 3, points: 8, want: []uint64{10}},
		{name: "one-point", from: 1057, to: 10000, points: 1, want: []uint64{1057}},
		{name: "rounding-dedup", from: 1, to: 3, points: 256, want: []uint64{1, 2, 3}},
	} {
		got := GeometricThetas(tc.from, tc.to, tc.points)
		if tc.want != nil {
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s: GeometricThetas(%d, %d, %d) = %v, want %v", tc.name, tc.from, tc.to, tc.points, got, tc.want)
			}
			continue
		}
		if len(got) != tc.len || got[0] != tc.first || got[len(got)-1] != tc.last {
			t.Errorf("%s: %d thetas %d..%d, want %d thetas %d..%d",
				tc.name, len(got), got[0], got[len(got)-1], tc.len, tc.first, tc.last)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("%s: ladder not strictly ascending at %d: %d after %d", tc.name, i, got[i], got[i-1])
			}
		}
	}
}
