package leakage

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// presentFlags returns the bit set of agg's flags classes.
func presentFlags(agg *interval.Aggregates) uint64 {
	var present uint64
	for _, c := range agg.Classes() {
		present |= 1 << c.Flags
	}
	return present
}

// edgeOnlyByDefinition is the fold's per-policy choice from its
// definition: every flags value present has the curve of its edge kind.
func edgeOnlyByDefinition(tech power.Technology, p Policy, agg *interval.Aggregates) bool {
	for _, c := range agg.Classes() {
		fine := p.(curvePolicy).EnergyCurve(tech, c.Flags)
		kind := p.(curvePolicy).EnergyCurve(tech, c.Flags.Edge())
		if !fine.valid() || !kind.valid() || !slices.Equal(fine.p[:fine.n], kind.p[:kind.n]) {
			return false
		}
	}
	return true
}

// TestEdgeFoldChoice pins the fold's per-policy choice and what it
// folds, at every builtin technology node and at the write-back
// ablation's nodes. The distributions are random ones over all 64 flags
// values, and one holding only dirty flags values, so that no edge kind
// is present itself and Compile builds a row for each. edgeOnly equals
// its definition, built inline or read from a table compiled over the
// aggregate. At the builtin nodes (WBEnergy = 0) the edge-only schemes
// choose the edge classes and the schemes that read a prefetch flag do
// not; past WBEnergy = 0 a sleep curve reads Dirty and folds over the
// flags classes. Every result agrees with the reference walk to ulp
// scale, so a fold over the edge classes for a curve that reads another
// flag fails here.
func TestEdgeFoldChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	dirty := interval.NewDistribution(4, 1<<22)
	for i := 0; i < 200; i++ {
		flags := []interval.Flags{interval.Dirty, interval.Dirty | interval.NLPrefetchable, interval.Trailing | interval.Dirty}[i%3]
		dirty.Add(uint64(rng.Intn(1<<20))+1, flags, uint64(rng.Intn(9))+1)
	}
	for iter := 0; iter < 12; iter++ {
		d := randomDistribution(rng)
		if iter == 0 {
			d = dirty
		}
		agg := interval.NewAggregates(d)
		present := presentFlags(agg)
		for _, tech := range closedFormTechnologies() {
			pols := testPolicies(tech)
			cp, err := Compile(tech, pols, agg)
			if err != nil {
				t.Fatalf("Compile @%s: %v", tech.Name, err)
			}
			evs, err := EvaluateMany(tech, agg, pols)
			if err != nil {
				t.Fatalf("EvaluateMany @%s: %v", tech.Name, err)
			}
			for i, p := range pols {
				want := edgeOnlyByDefinition(tech, p, agg)
				inline := edgeOnly(&tech, p, i, nil, present)
				table := edgeOnly(&cp.t, p, i, &cp.tab, present)
				if inline != want || table != want {
					t.Fatalf("iter %d %s @%s: edgeOnly inline %v, from the table %v; by definition %v", iter, p.Name(), tech.Name, inline, table, want)
				}
				ref, err := Evaluate(tech, d, p)
				if err != nil {
					t.Fatalf("Evaluate %s: %v", p.Name(), err)
				}
				if !relClose(evs[i].Energy, ref.Energy, 1e-9, 1e-12) {
					t.Fatalf("iter %d %s @%s (edge-only %v): energy %.17g, reference %.17g", iter, p.Name(), tech.Name, want, evs[i].Energy, ref.Energy)
				}
			}
			for _, p := range []Policy{AlwaysActive{}, OPTDrowsy{}, OPTHybrid{}, OPTSleep{Theta: 10000}, PrefetchB(), WayMemo{Accuracy: 0.9}} {
				got := edgeOnly(&tech, p, 0, nil, present)
				want := tech.WBEnergy == 0
				switch p.(type) {
				case AlwaysActive, OPTDrowsy:
					want = true
				case PrefetchGuided, WayMemo:
					want = false
				}
				if got != want {
					t.Fatalf("iter %d %s @%s (WBEnergy %g): edge-only %v, want %v", iter, p.Name(), tech.Name, tech.WBEnergy, got, want)
				}
			}
		}
	}
}

// TestThetaPointBitsDoNotDependOnList pins the fold's determinism across
// the per-policy choice: one point of each 256-point theta ladder (and
// of the cut-memo ladders) gives the same Energy, Baseline and Savings,
// bit for bit, alone, inside its ladder, next to Prefetch-B and WayMemo
// (which fold over the flags classes while it folds over the edge
// classes), through EvaluateMany and through Compiled with its curves
// from the table or built inline. Run under -race by make test-parallel.
func TestThetaPointBitsDoNotDependOnList(t *testing.T) {
	rng := rand.New(rand.NewSource(256))
	for _, tech := range power.Technologies() {
		aggs := []*interval.Aggregates{interval.NewAggregates(randomDistribution(rng)), interval.NewAggregates(randomDistribution(rng))}
		for _, l := range sweepLadders(t, tech) {
			for _, k := range []int{0, 100, 255} {
				p := l.pols[k]
				lists := []struct {
					name string
					pols []Policy
					at   int
				}{
					{"alone", []Policy{p}, 0},
					{"in its ladder", l.pols, k},
					{"next to Prefetch-B and WayMemo", []Policy{PrefetchB(), p, WayMemo{Accuracy: 0.9}}, 1},
				}
				for ai, agg := range aggs {
					if !edgeOnly(&tech, p, 0, nil, presentFlags(agg)) || edgeOnly(&tech, PrefetchB(), 0, nil, presentFlags(agg)) {
						t.Fatalf("%s point %d @%s: want it edge-only and Prefetch-B not", l.scheme, k, tech.Name)
					}
					var want Evaluation
					for li, list := range lists {
						many, err := EvaluateMany(tech, agg, list.pols)
						if err != nil {
							t.Fatalf("EvaluateMany: %v", err)
						}
						got := []Evaluation{many[list.at]}
						for _, compiled := range [][]*interval.Aggregates{aggs, nil} {
							cp, err := Compile(tech, list.pols, compiled...)
							if err != nil {
								t.Fatalf("Compile: %v", err)
							}
							evs, err := cp.Evaluate(agg)
							if err != nil {
								t.Fatalf("Compiled.Evaluate: %v", err)
							}
							got = append(got, evs[list.at])
						}
						if li == 0 {
							want = got[0]
						}
						for gi, ev := range got {
							if !sameBits(ev, want) {
								t.Fatalf("%s point %d @%s agg %d, %s (kernel %d): %#v, alone %#v", l.scheme, k, tech.Name, ai, list.name, gi, ev, want)
							}
						}
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b carry the same energy, baseline and
// savings, bit for bit.
func sameBits(a, b Evaluation) bool {
	return math.Float64bits(a.Energy) == math.Float64bits(b.Energy) &&
		math.Float64bits(a.Baseline) == math.Float64bits(b.Baseline) &&
		math.Float64bits(a.Savings) == math.Float64bits(b.Savings)
}
