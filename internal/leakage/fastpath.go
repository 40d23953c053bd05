package leakage

// The aggregate evaluation kernel: Evaluate's fast path over
// interval.Aggregates. A policy with a ClosedForm answers one sweep point
// in O(flags-classes x log buckets) — per class, each affine piece of the
// curve costs one binary search into the prefix arrays — instead of the
// reference path's full walk over every (length, flags) bucket. Policies
// without a closed form (custom registry schemes with no declared
// threshold structure) transparently fall back to the reference walk over
// Aggregates.Source(), so EvaluateAggregate is safe to call with any
// policy.
//
// Determinism: classes fold in ascending flags order and pieces in
// ascending length order, so a given (technology, aggregates, policy)
// triple always produces bit-identical output. Against the reference
// path the values agree to ulp-scale relative error (the prefix sums are
// exact uint64; only the float regrouping differs) — pinned by
// TestEvaluateAggregateMatchesReference and FuzzEvaluateFastPath.

import (
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// evalCurveOverClass folds one piecewise-affine curve over one flags
// class: sum over pieces of const*count + slope*mass of the lengths the
// piece covers, via prefix differences.
func evalCurveOverClass(c Curve, cls *interval.FlagsClass) float64 {
	var total float64
	var prevCount, prevMass uint64
	for i := 0; i < len(c.Consts); i++ {
		var count, mass uint64
		if i < len(c.Cuts) {
			count, mass = cls.Prefix(c.Cuts[i])
		} else {
			count, mass = cls.TotalCount(), cls.TotalMass()
		}
		if dc, dm := count-prevCount, mass-prevMass; dc != 0 || dm != 0 {
			total += c.Consts[i]*float64(dc) + c.Slopes[i]*float64(dm)
		}
		prevCount, prevMass = count, mass
	}
	return total
}

// EvaluateAggregate evaluates one policy over a prefix-aggregated
// distribution, with the same validation, error identities, and result
// semantics as Evaluate. It uses the closed-form fast path when the
// policy declares one and falls back to the reference bucket walk over
// agg.Source() otherwise.
//
//lint:hotpath entry
func EvaluateAggregate(t power.Technology, agg *interval.Aggregates, p Policy) (Evaluation, error) {
	if err := t.Validate(); err != nil {
		return Evaluation{}, err
	}
	if agg == nil {
		return Evaluation{}, ErrNilDistribution
	}
	if p == nil {
		return Evaluation{}, ErrNilPolicy
	}
	cf, ok := p.(ClosedForm)
	if !ok {
		//lint:ignore hotalloc policies without a closed form take the audited reference walk; no builtin policy hits this
		return Evaluate(t, agg.Source(), p)
	}
	baseline := t.PActive * float64(agg.Mass())
	if baseline == 0 {
		return Evaluation{}, fmt.Errorf("%w: zero mass", ErrEmptyDistribution)
	}
	var energy float64
	for i := range agg.Classes() {
		cls := &agg.Classes()[i]
		//lint:ignore hotalloc one virtual EnergyCurve dispatch per flags class (≤64), amortized over the whole curve
		curve, ok := cf.EnergyCurve(t, cls.Flags)
		if !ok {
			// No closed form for this flags class: the whole evaluation
			// falls back, never a mixed fast/reference sum.
			return Evaluate(t, agg.Source(), p)
		}
		energy += evalCurveOverClass(curve, cls)
	}
	return Evaluation{
		//lint:ignore hotalloc one Name dispatch per evaluation to stamp the result
		Policy:   p.Name(),
		Energy:   energy,
		Baseline: baseline,
		Savings:  1 - energy/baseline,
	}, nil
}

// EvaluateMany answers a whole policy list against one aggregated
// distribution — the batched inner loop of the dense sweeps and the
// Pareto population. Results are indexed like policies; errors carry the
// failing policy's name, matching EvaluateAll.
//
//lint:hotpath entry
func EvaluateMany(t power.Technology, agg *interval.Aggregates, ps []Policy) ([]Evaluation, error) {
	out := make([]Evaluation, len(ps))
	for i, p := range ps {
		ev, err := EvaluateAggregate(t, agg, p)
		if err != nil {
			return nil, fmt.Errorf("leakage: evaluating %s: %w", p.Name(), err)
		}
		out[i] = ev
	}
	return out, nil
}

// InducedMissesAggregate is InducedMisses over aggregates: the total
// expected induced re-fetches via the policy's MissClosedForm, with the
// same fallback and error identities as the reference fold.
func InducedMissesAggregate(t power.Technology, agg *interval.Aggregates, p Policy) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if agg == nil {
		return 0, ErrNilDistribution
	}
	if p == nil {
		return 0, ErrNilPolicy
	}
	if _, ok := p.(MissModel); !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoMissModel, p.Name())
	}
	mc, ok := p.(MissClosedForm)
	if !ok {
		return InducedMisses(t, agg.Source(), p)
	}
	var total float64
	for i := range agg.Classes() {
		cls := &agg.Classes()[i]
		curve, ok := mc.MissCurve(t, cls.Flags)
		if !ok {
			return InducedMisses(t, agg.Source(), p)
		}
		total += evalCurveOverClass(curve, cls)
	}
	return total, nil
}

// InducedMissRateAggregate is InducedMissRate over aggregates: induced
// re-fetches per 1000 intervals.
func InducedMissRateAggregate(t power.Technology, agg *interval.Aggregates, p Policy) (float64, error) {
	misses, err := InducedMissesAggregate(t, agg, p)
	if err != nil {
		return 0, err
	}
	n := agg.NumIntervals()
	if n == 0 {
		return 0, fmt.Errorf("%w: no intervals", ErrEmptyDistribution)
	}
	return misses * 1000 / float64(n), nil
}
