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

// foldClass folds one curve over one flags class via prefix
// differences: the energy sum over pieces of cnst*Δcount + slope*Δmass,
// and from the same two lookups the induced misses, misses*Δcount.
func foldClass(c *Curve, cls *interval.FlagsClass) (energy, misses float64) {
	var prevCount, prevMass uint64
	for i := 0; i < c.n; i++ {
		pc := &c.p[i]
		count, mass := cls.TotalCount(), cls.TotalMass()
		if i < c.n-1 {
			count, mass = cls.Prefix(pc.end)
		}
		if dc, dm := count-prevCount, mass-prevMass; dc != 0 || dm != 0 {
			energy += pc.cnst*float64(dc) + pc.slope*float64(dm)
			misses += pc.misses * float64(dc)
		}
		prevCount, prevMass = count, mass
	}
	return energy, misses
}

// foldAggregate folds the policy's curve for every flags class, in
// ascending flags order, into the distribution's total energy and induced
// misses. ok=false means some class has no closed form (or its curve
// overflowed maxPieces): the caller takes the reference walk for the
// whole distribution, never a mixed fast/reference sum.
func foldAggregate(t power.Technology, agg *interval.Aggregates, cf ClosedForm) (energy, misses float64, ok bool) {
	for i := range agg.Classes() {
		cls := &agg.Classes()[i]
		//lint:ignore hotalloc one virtual EnergyCurve dispatch per flags class (≤64) returning an inline Curve; TestAggregateKernelsDoNotAllocate pins it at 0 allocs
		curve, ok := cf.EnergyCurve(t, cls.Flags)
		if !ok || !curve.valid() {
			return 0, 0, false
		}
		e, m := foldClass(&curve, cls)
		energy += e
		misses += m
	}
	return energy, misses, true
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
	var energy float64
	if ok {
		energy, _, ok = foldAggregate(t, agg, cf)
	}
	if !ok {
		//lint:ignore hotalloc policies without a closed form, or with a flags class their curve cannot express, take the audited reference walk; TestClosedFormsMatchReference fails if any builtin policy lacks a valid curve for any flags class
		return Evaluate(t, agg.Source(), p)
	}
	baseline := t.PActive * float64(agg.Mass())
	if baseline == 0 {
		return Evaluation{}, fmt.Errorf("%w: zero mass", ErrEmptyDistribution)
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
// expected induced re-fetches folded from the misses the policy's
// EnergyCurve pieces carry, with the same fallback and error identities
// as the reference fold.
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
	cf, ok := p.(ClosedForm)
	var misses float64
	if ok {
		_, misses, ok = foldAggregate(t, agg, cf)
	}
	if !ok {
		return InducedMisses(t, agg.Source(), p)
	}
	return misses, nil
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
