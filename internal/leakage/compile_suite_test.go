package leakage_test

import (
	"context"
	"testing"

	"leakbound/internal/experiments"
	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
)

// TestCompileRowsPerEdgeKind pins what the flag masks buy Compile on real
// aggregates: a 256-point OPT-Hybrid theta ladder compiled at 70nm over
// the scale-1 suite's D-cache aggregates (every benchmark's, a dozen or
// more flags values present) points every present flags value at its
// edge kind's row, so the table holds at most four rows, one per edge
// kind.
func TestCompileRowsPerEdgeKind(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the scale-1 suite")
	}
	all, err := experiments.MustNew(experiments.WithScale(1)).AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tech, err := power.TechnologyByName("70nm")
	if err != nil {
		t.Fatal(err)
	}
	pols := make([]leakage.Policy, 256)
	for i := range pols {
		spec := leakage.PolicySpec{Scheme: "opt-hybrid", Params: leakage.Params{"theta": leakage.Uint(uint64(1000 + 400*i))}}
		if pols[i], err = leakage.DefaultRegistry().Build(spec, tech); err != nil {
			t.Fatal(err)
		}
	}
	aggs := make([]*interval.Aggregates, len(all))
	var present uint64
	for i, bd := range all {
		_, aggs[i] = bd.Side(false)
		for _, c := range aggs[i].Classes() {
			present |= 1 << c.Flags
		}
	}
	cp, err := leakage.Compile(tech, pols, aggs...)
	if err != nil {
		t.Fatal(err)
	}
	rowOf, rows := leakage.RowsOf(cp)
	n := 0
	for f := interval.Flags(0); f < interval.NumFlags; f++ {
		if present&(1<<f) == 0 {
			continue
		}
		n++
		if r := rowOf[f]; r == 0 || r != rowOf[f.Edge()] {
			t.Errorf("flags %v: row %d, its edge kind %v row %d; want the same row", f, r, f.Edge(), rowOf[f.Edge()])
		}
	}
	if rows > 4 {
		t.Errorf("%d rows for %d flags values present, want at most 4 (one per edge kind)", rows, n)
	}
	t.Logf("%d flags values present, %d rows", n, rows)
}
