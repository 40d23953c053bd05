package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
	"leakbound/internal/workload/spec"
)

// testSpec parses a tiny workload spec, varying name and seed so tests
// can mint distinct scenarios cheaply.
func testSpec(t *testing.T, name string, seed uint64) *spec.Spec {
	t.Helper()
	raw := fmt.Sprintf(`{"version":1,"name":%q,"seed":%d,"phases":[
		{"body_instrs":200,"iterations":60,"mix":[
			{"kernel":"loop","bytes":16384},{"kernel":"hot","lines":8}]},
		{"body_instrs":150,"iterations":40,"mem_every":4,
		 "schedule":{"kind":"bursty","steps":2,"duty":0.5},
		 "mix":[{"kernel":"chase","elems":128}]}]}`, name, seed)
	s, err := spec.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWithScenariosValidation(t *testing.T) {
	good := testSpec(t, "good-spec", 1)
	cases := []struct {
		label string
		opt   Option
	}{
		{"nil scenario", WithScenarios(nil)},
		{"builtin shadow", WithScenarios(testSpec(t, "gzip", 1))},
		{"duplicate", WithScenarios(good, testSpec(t, "good-spec", 2))},
	}
	for _, tc := range cases {
		if _, err := New(WithScale(0.02), tc.opt); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: got %v, want ErrBadOption", tc.label, err)
		}
	}
	if _, err := New(WithScale(0.02), WithScenarios(good)); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestScenarioNamesAndLookup(t *testing.T) {
	sc := testSpec(t, "extra-bench", 7)
	s := MustNew(WithScale(0.02), WithScenarios(sc), WithMetrics(telemetry.NewRegistry()))
	names := s.BenchmarkNames()
	builtin := workload.Names()
	if len(names) != len(builtin)+1 || names[len(names)-1] != "extra-bench" {
		t.Fatalf("BenchmarkNames = %v", names)
	}
	for i, n := range builtin {
		if names[i] != n {
			t.Fatalf("builtin order broken: %v", names)
		}
	}
	if !s.KnownBenchmark("gzip") || !s.KnownBenchmark("extra-bench") {
		t.Error("known benchmarks not recognized")
	}
	if s.KnownBenchmark("nope") {
		t.Error("unknown benchmark recognized")
	}
	if got := len(s.Scenarios()); got != 1 {
		t.Errorf("Scenarios() returned %d entries", got)
	}

	// A suite without scenarios serves exactly the builtin set — the
	// golden-output safety property: registration is purely additive.
	plain := MustNew(WithScale(0.02), WithMetrics(telemetry.NewRegistry()))
	if got := plain.BenchmarkNames(); len(got) != len(builtin) {
		t.Errorf("default suite names = %v", got)
	}
}

func TestScenarioThroughSuite(t *testing.T) {
	sc := testSpec(t, "extra-bench", 7)
	s := MustNew(WithScale(0.5), WithScenarios(sc), WithMetrics(telemetry.NewRegistry()))

	// Resolves by name like any benchmark, and joins AllContext.
	d, err := s.DataContext(context.Background(), "extra-bench")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "extra-bench" || d.Result.Cycles == 0 {
		t.Fatalf("bad scenario data: %+v", d.Result)
	}
	if d.IAgg == nil || d.DAgg == nil {
		t.Fatal("scenario data missing aggregates")
	}
	all, err := s.AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(workload.Names())+1 || all[len(all)-1].Name != "extra-bench" {
		t.Fatalf("AllContext did not include the scenario: %d entries", len(all))
	}
	if all[len(all)-1] != d {
		t.Error("AllContext re-simulated the scenario instead of sharing")
	}

	// Same spec + same scale in a fresh suite is bit-identical.
	s2 := MustNew(WithScale(0.5), WithScenarios(testSpec(t, "extra-bench", 7)), WithMetrics(telemetry.NewRegistry()))
	d2, err := s2.DataContext(context.Background(), "extra-bench")
	if err != nil {
		t.Fatal(err)
	}
	if !d.ICache.Equal(d2.ICache) || !d.DCache.Equal(d2.DCache) {
		t.Error("scenario simulation not deterministic across suites")
	}
	if d.Result != d2.Result {
		t.Errorf("scenario results differ: %+v vs %+v", d.Result, d2.Result)
	}
}

func TestScenarioDiskCache(t *testing.T) {
	dir := t.TempDir()
	sc := testSpec(t, "cached-bench", 3)
	s1 := MustNew(WithScale(0.5), WithScenarios(sc), WithCacheDir(dir), WithMetrics(telemetry.NewRegistry()))
	d1, err := s1.DataContext(context.Background(), "cached-bench")
	if err != nil {
		t.Fatal(err)
	}
	s2 := MustNew(WithScale(0.5), WithScenarios(sc), WithCacheDir(dir), WithMetrics(telemetry.NewRegistry()))
	d2 := s2.loadCached(s2.scenarioCacheKey("cached-bench", sc.Digest()), "cached-bench")
	if d2 == nil {
		t.Fatal("scenario cache miss after store")
	}
	if !d1.ICache.Equal(d2.ICache) {
		t.Error("cached scenario distribution differs")
	}
	// A changed spec (same name, different digest) must miss.
	other := testSpec(t, "cached-bench", 4)
	if other.Digest() == sc.Digest() {
		t.Fatal("digests collide")
	}
	if s2.loadCached(s2.scenarioCacheKey("cached-bench", other.Digest()), "cached-bench") != nil {
		t.Error("stale cache entry served for edited spec")
	}
}

func TestDataForScenarioAdhoc(t *testing.T) {
	ctx := context.Background()
	s := MustNew(WithScale(0.5), WithMetrics(telemetry.NewRegistry()))

	sc := testSpec(t, "adhoc-bench", 11)
	d1, err := s.DataForScenarioContext(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Name != "adhoc-bench" {
		t.Fatalf("Name = %q", d1.Name)
	}
	// Second request for the same digest reuses the cached result.
	d2, err := s.DataForScenarioContext(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("same digest re-simulated")
	}
	// Ad-hoc entries never leak into the benchmark namespace.
	if s.KnownBenchmark("adhoc-bench") {
		t.Error("ad-hoc scenario registered itself")
	}
	if _, err := s.DataContext(ctx, "adhoc-bench"); !errors.Is(err, workload.ErrUnknownBenchmark) {
		t.Errorf("ad-hoc name resolved by DataContext: %v", err)
	}
	for _, n := range s.SortedNames() {
		if n == "adhoc-bench" {
			t.Error("ad-hoc entry listed in SortedNames")
		}
	}
	if _, err := s.DataForScenarioContext(ctx, nil); !errors.Is(err, ErrBadOption) {
		t.Errorf("nil scenario: %v", err)
	}

	// The ad-hoc window is bounded: the oldest digest is evicted.
	for i := 0; i < adhocDataCap+1; i++ {
		if _, err := s.DataForScenarioContext(ctx, testSpec(t, "churn", uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	order, first := len(s.adhocOrder), 0
	for key := range s.data {
		if key == "adhoc:"+sc.Digest() {
			first++
		}
	}
	s.mu.Unlock()
	if order != adhocDataCap {
		t.Errorf("adhocOrder holds %d entries, want %d", order, adhocDataCap)
	}
	if first != 0 {
		t.Error("oldest ad-hoc entry not evicted")
	}
}

func TestDataForScenarioRegisteredShares(t *testing.T) {
	ctx := context.Background()
	sc := testSpec(t, "shared-bench", 5)
	s := MustNew(WithScale(0.5), WithScenarios(sc), WithMetrics(telemetry.NewRegistry()))
	dReg, err := s.DataContext(ctx, "shared-bench")
	if err != nil {
		t.Fatal(err)
	}
	dAdhoc, err := s.DataForScenarioContext(ctx, testSpec(t, "shared-bench", 5))
	if err != nil {
		t.Fatal(err)
	}
	if dReg != dAdhoc {
		t.Error("matching registered scenario not shared with ad-hoc request")
	}
}

func TestEvaluateScenarioCell(t *testing.T) {
	ctx := context.Background()
	s := MustNew(WithScale(0.5), WithMetrics(telemetry.NewRegistry()))
	sc := testSpec(t, "cell-bench", 9)
	tech := power.Default()
	pol, err := ParsePolicy("opt-hybrid", tech)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := s.EvaluateScenarioCellContext(ctx, sc, true, tech, pol)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Benchmark != "cell-bench" || cell.Cache != "i" {
		t.Fatalf("bad coordinates: %+v", cell)
	}
	if cell.Baseline <= 0 || cell.Energy <= 0 || cell.Energy > cell.Baseline {
		t.Errorf("implausible energies: %+v", cell)
	}
}

func TestSweepParamScenario(t *testing.T) {
	ctx := context.Background()
	s := MustNew(WithScale(0.5), WithMetrics(telemetry.NewRegistry()))
	sc := testSpec(t, "sweep-bench", 13)
	tech := power.Default()
	values := []leakage.ParamValue{leakage.Uint(1000), leakage.Uint(10000), leakage.Uint(100000)}
	pts, err := s.SweepParamScenarioContext(ctx, sc, "opt-sleep", "", true, tech, values)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(values) {
		t.Fatalf("got %d points, want %d", len(pts), len(values))
	}
	for i, p := range pts {
		if p.Value != values[i] {
			t.Errorf("point %d value = %v", i, p.Value)
		}
	}
	if _, err := s.SweepParamScenarioContext(ctx, sc, "no-such-scheme", "", true, tech, values); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unknown scheme: %v", err)
	}
	if _, err := s.SweepParamScenarioContext(ctx, sc, "opt-sleep", "", true, tech, nil); !errors.Is(err, ErrBadOption) {
		t.Errorf("empty values: %v", err)
	}
}
