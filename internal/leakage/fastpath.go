package leakage

// The aggregate evaluation kernel: Evaluate's fast path over
// interval.Aggregates. A policy with a ClosedForm answers one sweep point
// in O(flags-classes x log buckets) — per class, each affine piece of the
// curve costs one prefix search into the class's sorted lengths — instead
// of the reference path's full walk over every (length, flags) bucket.
// Policies without a closed form (custom registry schemes with no
// declared threshold structure) transparently fall back to the reference
// walk over Aggregates.Source(), so every kernel is safe to call with any
// policy.
//
// One fold serves every kernel: fold runs class-major, folding every
// policy's curve over one flags class before moving to the next, so a
// policy ladder's searches in one class start from the previous policy's
// answers (interval.FlagsClass.PrefixFrom) instead of from scratch.
// Two kernels remain over it: EvaluateMany is its one-aggregate case, and
// Compiled its many-aggregate case: Compile builds each policy's curve
// once per flags value present in the aggregates it is given, and names
// each policy once, so a sweep's benchmarks share one curve table.
// Builtin curves are built in place (curveBuilder), and the table keeps
// one row per distinct set of curves: flags values whose curves all come
// out equal point at the same row, so a theta ladder compiles a handful
// of rows, not one per flags value present.
//
// Determinism: per policy, classes fold in ascending flags order and
// pieces in ascending length order whatever the batch, so a given
// (technology, aggregates, policy) triple produces bit-identical output
// through both kernels and at any position in the policy list. Against
// the reference path the values agree to ulp-scale relative error (the
// prefix sums are exact uint64; only the float regrouping differs) —
// pinned by TestEvaluateAggregateMatchesReference and FuzzEvaluateFastPath.

import (
	"fmt"
	"slices"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// noHint starts a class's fold with hint-less prefix searches.
var noHint = [maxPieces]int{-1, -1, -1, -1}

// foldClass folds one curve's pieces over one flags class via prefix
// differences: the energy sum over pieces of cnst*Δcount + slope*Δmass,
// and from the same lookups the induced misses, misses*Δcount. Piece j's
// search starts from hint[j], the answer of the class's previous fold
// (-1: none), and leaves its own answer there.
func foldClass(pcs []piece, cls *interval.FlagsClass, hint *[maxPieces]int) (energy, misses float64) {
	var prevCount, prevMass uint64
	last := len(pcs) - 1
	for j := range pcs {
		pc := &pcs[j]
		count, mass := cls.TotalCount(), cls.TotalMass()
		if j < last {
			count, mass, hint[j] = cls.PrefixFrom(pc.end, hint[j])
		}
		if dc, dm := count-prevCount, mass-prevMass; dc != 0 || dm != 0 {
			energy += pc.cnst*float64(dc) + pc.slope*float64(dm)
			misses += pc.misses * float64(dc)
		}
		prevCount, prevMass = count, mass
	}
	return energy, misses
}

// span locates one compiled curve in its curveRow's pieces; n < 0 means
// the policy has no valid closed form for the row's flags value.
type span struct{ off, n int32 }

// curveRow holds every policy's curve for the flags values that share
// it, in policy order, keeping only the pieces in use.
type curveRow struct {
	spans  []span
	pieces []piece
}

// curveTable holds the compiled curves: one row per distinct set of
// curves, shared by every flags value whose curves are all equal.
type curveTable struct {
	rowOf [interval.NumFlags]int32 // flags → 1 + its row's index in rows; 0: not compiled
	rows  []curveRow
}

// fold is the one class-major fold behind every aggregate kernel: for
// each flags class of agg in ascending order it folds the curve of every
// policy in ps, accumulating energy into out[i].Energy and induced misses
// into ms[i].Rate (ms may be nil). A class whose flags tab compiled (tab
// may be nil) reads its curves from the table, any other builds them
// inline. A policy without a ClosedForm, or with an invalid curve for a
// class present, is marked by a negative out[i].Baseline and folds no
// further: its caller takes the reference walk for the whole
// distribution, never a mixed fast/reference sum.
func fold(t *power.Technology, agg *interval.Aggregates, ps []Policy, tab *curveTable, out []Evaluation, ms []MissRate) {
	classes := agg.Classes()
	for k := range classes {
		cls := &classes[k]
		var row *curveRow
		if tab != nil {
			if r := tab.rowOf[cls.Flags]; r > 0 {
				row = &tab.rows[r-1]
			}
		}
		hint := noHint
		for i, p := range ps {
			if out[i].Baseline < 0 {
				continue
			}
			var pcs []piece
			if row != nil {
				if sp := row.spans[i]; sp.n > 0 {
					pcs = row.pieces[sp.off : sp.off+sp.n]
				}
			} else if cf, ok := p.(ClosedForm); ok {
				//lint:ignore hotalloc one virtual EnergyCurve dispatch per (policy, flags class) returning an inline Curve; TestAggregateKernelsDoNotAllocate pins EvaluateMany at its one result-slice alloc
				if c, ok := cf.EnergyCurve(*t, cls.Flags); ok && c.valid() {
					pcs = c.p[:c.n]
				}
			}
			if pcs == nil {
				out[i].Baseline = -1
				continue
			}
			e, m := foldClass(pcs, cls, &hint)
			out[i].Energy += e
			if ms != nil {
				ms[i].Rate += m
			}
		}
	}
}

// settle finishes a fold: each folded policy gets the baseline and its
// savings, and each policy the fold marked takes the reference walk.
func settle(t *power.Technology, agg *interval.Aggregates, ps []Policy, out []Evaluation, baseline float64) error {
	for i := range out {
		if out[i].Baseline >= 0 {
			out[i].Baseline = baseline
			out[i].Savings = 1 - out[i].Energy/baseline
			continue
		}
		//lint:ignore hotalloc policies without a closed form, or with a flags class their curve cannot express, take the audited reference walk; TestClosedFormsMatchReference fails if any builtin policy lacks a valid curve for any flags class
		ev, err := Evaluate(*t, agg.Source(), ps[i])
		if err != nil {
			return fmt.Errorf("leakage: evaluating %s: %w", out[i].Policy, err)
		}
		out[i] = ev
	}
	return nil
}

// checkPolicies validates the technology once and rejects a nil policy,
// naming its index.
func checkPolicies(t *power.Technology, ps []Policy) error {
	if err := t.Validate(); err != nil {
		return err
	}
	for i, p := range ps {
		if p == nil {
			return fmt.Errorf("leakage: evaluating policy %d: %w", i, ErrNilPolicy)
		}
	}
	return nil
}

// baselineOf returns agg's always-active baseline energy, with
// Evaluate's errors for a nil or massless distribution.
func baselineOf(t *power.Technology, agg *interval.Aggregates) (float64, error) {
	if agg == nil {
		return 0, ErrNilDistribution
	}
	baseline := t.PActive * float64(agg.Mass())
	if baseline == 0 {
		return 0, fmt.Errorf("%w: zero mass", ErrEmptyDistribution)
	}
	return baseline, nil
}

// EvaluateMany answers a whole policy list against one aggregated
// distribution: the fold's one-aggregate case, which needs no curve
// table because each (policy, class) curve is used once. Results are
// indexed like policies. A nil policy is reported by index; the
// technology and distribution errors are Evaluate's. A policy without a
// closed form, or whose curve cannot express a class present, takes
// Evaluate's reference walk over agg.Source().
//
//lint:hotpath entry
func EvaluateMany(t power.Technology, agg *interval.Aggregates, ps []Policy) ([]Evaluation, error) {
	if err := checkPolicies(&t, ps); err != nil {
		return nil, err
	}
	baseline, err := baselineOf(&t, agg)
	if err != nil {
		return nil, err
	}
	out := make([]Evaluation, len(ps))
	for i, p := range ps {
		//lint:ignore hotalloc one Name dispatch per policy per call (parameterized names format here); sweeps over several aggregates name once per query through Compile
		out[i].Policy = p.Name()
	}
	fold(&t, agg, ps, nil, out, nil)
	if err := settle(&t, agg, ps, out, baseline); err != nil {
		return nil, err
	}
	return out, nil
}

// Compiled is a policy list prepared for evaluation over many
// aggregates: the technology validated once, each policy named once, and
// each policy's curve built once per flags value present in the
// aggregates given to Compile. It is read-only after Compile, so any
// number of goroutines may evaluate through it at once.
type Compiled struct {
	t     power.Technology
	ps    []Policy
	names []string
	tab   curveTable
}

// Compile prepares ps for evaluation at t over aggs (nil entries are
// skipped). Aggregates need not be listed to be evaluated later: a class
// whose flags no listed aggregate holds builds its curves inline.
//
// Builtin curves are built in place through one curveEnv, so the
// technology is neither copied per curve nor its inflection point
// recomputed. Flags values whose curves all come out equal share one
// row: a sleep threshold's curves differ only by the few flag bits the
// policy dispatches on.
func Compile(t power.Technology, ps []Policy, aggs ...*interval.Aggregates) (*Compiled, error) {
	if err := checkPolicies(&t, ps); err != nil {
		return nil, err
	}
	c := &Compiled{t: t, ps: slices.Clone(ps), names: make([]string, len(ps))}
	for i, p := range c.ps {
		c.names[i] = p.Name()
	}
	var present [interval.NumFlags]bool
	flags := 0
	for _, agg := range aggs {
		if agg == nil {
			continue
		}
		for k := range agg.Classes() {
			if f := agg.Classes()[k].Flags; !present[f] {
				present[f] = true
				flags++
			}
		}
	}
	c.tab.rows = make([]curveRow, 0, flags)
	env := &curveEnv{Technology: &c.t}
	curve := new(Curve)
	// Each row is staged, then copied out only if no earlier row holds it.
	spans := make([]span, len(ps))
	pieces := make([]piece, 0, maxPieces*len(ps))
	for f, ok := range present {
		if !ok {
			continue
		}
		pieces = pieces[:0]
		for i, p := range c.ps {
			spans[i] = span{n: -1}
			ok := false
			if cb, builtin := p.(curveBuilder); builtin {
				curve.n = 0
				cb.build(curve, env, interval.Flags(f))
				ok = true
			} else if cf, closed := p.(ClosedForm); closed {
				*curve, ok = cf.EnergyCurve(t, interval.Flags(f))
			}
			if ok && curve.valid() {
				spans[i] = span{off: int32(len(pieces)), n: int32(curve.n)}
				pieces = append(pieces, curve.p[:curve.n]...)
			}
		}
		c.tab.rowOf[f] = c.tab.row(spans, pieces)
	}
	return c, nil
}

// row returns 1 + the index of the row holding exactly spans and pieces,
// appending a copy of them when no row does yet.
func (tab *curveTable) row(spans []span, pieces []piece) int32 {
	for r := range tab.rows {
		if slices.Equal(tab.rows[r].spans, spans) && slices.Equal(tab.rows[r].pieces, pieces) {
			return int32(r + 1)
		}
	}
	tab.rows = append(tab.rows, curveRow{spans: slices.Clone(spans), pieces: slices.Clone(pieces)})
	return int32(len(tab.rows))
}

// foldChecked checks agg and runs the fold over it with c's table,
// returning the unsettled results and agg's baseline.
func (c *Compiled) foldChecked(agg *interval.Aggregates, ms []MissRate) ([]Evaluation, float64, error) {
	baseline, err := baselineOf(&c.t, agg)
	if err != nil {
		return nil, 0, err
	}
	out := make([]Evaluation, len(c.ps))
	for i, name := range c.names {
		out[i].Policy = name
	}
	fold(&c.t, agg, c.ps, &c.tab, out, ms)
	return out, baseline, nil
}

// Evaluate answers every compiled policy over agg, indexed like the
// policies given to Compile; each result equals EvaluateMany's for the
// same policies, bit for bit, and so do the errors.
//
//lint:hotpath entry
func (c *Compiled) Evaluate(agg *interval.Aggregates) ([]Evaluation, error) {
	out, baseline, err := c.foldChecked(agg, nil)
	if err != nil {
		return nil, err
	}
	if err := settle(&c.t, agg, c.ps, out, baseline); err != nil {
		return nil, err
	}
	return out, nil
}

// MissRate is one policy's induced re-fetches per 1000 intervals, or the
// error InducedMissRate reports for it over agg.Source().
type MissRate struct {
	Rate float64
	Err  error
}

// EvaluateMisses is Evaluate plus, from the same fold, each policy's
// induced-miss rate: rates[i] agrees with InducedMissRate over
// agg.Source() for the i-th policy to ulp scale (bit for bit, and with the
// same errors, when the policy takes the reference walk). A policy's miss
// error does not fail the call.
func (c *Compiled) EvaluateMisses(agg *interval.Aggregates) ([]Evaluation, []MissRate, error) {
	ms := make([]MissRate, len(c.ps))
	out, baseline, err := c.foldChecked(agg, ms)
	if err != nil {
		return nil, nil, err
	}
	n := agg.NumIntervals()
	for i, p := range c.ps {
		_, ok := p.(MissModel)
		switch {
		case !ok:
			ms[i] = MissRate{Err: fmt.Errorf("%w: %s", ErrNoMissModel, c.names[i])}
		case out[i].Baseline < 0:
			ms[i].Rate, ms[i].Err = InducedMissRate(c.t, agg.Source(), p)
		default:
			// foldChecked rejected a zero-mass agg, so n > 0.
			ms[i].Rate = ms[i].Rate * 1000 / float64(n)
		}
	}
	if err := settle(&c.t, agg, c.ps, out, baseline); err != nil {
		return nil, nil, err
	}
	return out, ms, nil
}
