package leakage

// The aggregate evaluation kernel: the paper's closed form per interval,
// folded over interval.Aggregates. Every builtin policy's curve
// (curvePolicy) answers one sweep point in O(flags-classes x pieces):
// per class, each affine piece of the curve costs one prefix search,
// which reads its bracket from the class's value index and
// binary-searches only the few lengths inside it
// (interval.FlagsClass.Prefix). The kernels take curve policies only: a
// policy without a curve is rejected up front with ErrNoClosedForm, and
// a curve that overflows maxPieces is an error, so no evaluation
// silently walks buckets. Evaluate and InducedMissRate,
// the per-bucket walks, are the reference oracle the kernels are tested
// against.
//
// One fold serves every kernel: fold runs class-major, folding every
// policy's curve over one flags class before moving to the next, so a
// policy ladder's searches in one class read the same index and arrays
// while they are still in cache. No search depends on another's answer.
// Two kernels remain over it: EvaluateMany is its one-aggregate case, and
// Compiled its many-aggregate case: Compile builds each policy's curve
// once per flags value present in the aggregates it is given, and names
// each policy once, so a sweep's benchmarks share one curve table.
// Curves are built in place (curvePolicy.build), and the table keeps
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

// foldClass folds one curve's pieces over one flags class via prefix
// differences: the energy sum over pieces of cnst*Δcount + slope*Δmass,
// and from the same lookups the induced misses, misses*Δcount.
func foldClass(pcs []piece, cls *interval.FlagsClass) (energy, misses float64) {
	var prevCount, prevMass uint64
	last := len(pcs) - 1
	for j := range pcs {
		pc := &pcs[j]
		count, mass := cls.TotalCount(), cls.TotalMass()
		if j < last {
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

// span locates one compiled curve in its curveRow's pieces.
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

// errOverflow reports that policy i's curve for flags needs more than
// maxPieces pieces.
func errOverflow(i int, p Policy, flags interval.Flags) error {
	return fmt.Errorf("leakage: policy %d (%s): curve for flags %v needs more than %d pieces", i, p.Name(), flags, maxPieces)
}

// fold is the one class-major fold behind every aggregate kernel: for
// each flags class of agg in ascending order it folds the curve of every
// policy in ps, accumulating energy into out[i].Energy and induced misses
// into ms[i] (ms may be nil). A class whose flags tab compiled (tab may
// be nil) reads its curves from the table, any other builds them inline.
// Every policy in ps is a curvePolicy (checkPolicies); an inline curve
// that overflows is an error.
func fold(t *power.Technology, agg *interval.Aggregates, ps []Policy, tab *curveTable, out []Evaluation, ms []float64) error {
	classes := agg.Classes()
	for k := range classes {
		cls := &classes[k]
		var row *curveRow
		if tab != nil {
			if r := tab.rowOf[cls.Flags]; r > 0 {
				row = &tab.rows[r-1]
			}
		}
		for i, p := range ps {
			var pcs []piece
			if row != nil {
				sp := row.spans[i]
				pcs = row.pieces[sp.off : sp.off+sp.n]
			} else {
				//lint:ignore hotalloc one virtual EnergyCurve dispatch per (policy, flags class) returning an inline Curve; TestAggregateKernelsDoNotAllocate pins EvaluateMany at its one result-slice alloc
				c := p.(curvePolicy).EnergyCurve(*t, cls.Flags)
				if !c.valid() {
					return errOverflow(i, p, cls.Flags)
				}
				pcs = c.p[:c.n]
			}
			e, m := foldClass(pcs, cls)
			out[i].Energy += e
			if ms != nil {
				ms[i] += m
			}
		}
	}
	return nil
}

// settle finishes a fold: every policy gets the baseline and its
// savings.
func settle(out []Evaluation, baseline float64) {
	for i := range out {
		out[i].Baseline = baseline
		out[i].Savings = 1 - out[i].Energy/baseline
	}
}

// checkPolicies validates the technology once and rejects a nil policy
// and a policy without a curve, naming its index.
func checkPolicies(t *power.Technology, ps []Policy) error {
	if err := t.Validate(); err != nil {
		return err
	}
	for i, p := range ps {
		if p == nil {
			return fmt.Errorf("leakage: evaluating policy %d: %w", i, ErrNilPolicy)
		}
		if _, ok := p.(curvePolicy); !ok {
			return fmt.Errorf("leakage: evaluating policy %d (%s): %w", i, p.Name(), ErrNoClosedForm)
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
// indexed like policies. A nil policy and a policy without a closed form
// are reported by index, and so is a curve that overflows maxPieces for
// a class present; the technology and distribution errors are
// Evaluate's.
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
	if err := fold(&t, agg, ps, nil, out, nil); err != nil {
		return nil, err
	}
	settle(out, baseline)
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
// whose flags no listed aggregate holds builds its curves inline. The
// errors are EvaluateMany's; a curve that overflows for a flags value
// present in aggs fails Compile, for any other value the evaluation that
// meets it.
//
// Curves are built in place through one curveEnv, so the technology is
// neither copied per curve nor its inflection point recomputed. Flags
// values whose curves all come out equal share one row: a sleep
// threshold's curves differ only by the few flag bits the policy
// dispatches on.
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
			curve.n = 0
			p.(curvePolicy).build(curve, env, interval.Flags(f))
			if !curve.valid() {
				return nil, errOverflow(i, p, interval.Flags(f))
			}
			spans[i] = span{off: int32(len(pieces)), n: int32(curve.n)}
			pieces = append(pieces, curve.p[:curve.n]...)
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

// evaluate checks agg and folds it with c's table, accumulating induced
// misses into ms when it is not nil.
func (c *Compiled) evaluate(agg *interval.Aggregates, ms []float64) ([]Evaluation, error) {
	baseline, err := baselineOf(&c.t, agg)
	if err != nil {
		return nil, err
	}
	out := make([]Evaluation, len(c.ps))
	for i, name := range c.names {
		out[i].Policy = name
	}
	if err := fold(&c.t, agg, c.ps, &c.tab, out, ms); err != nil {
		return nil, err
	}
	settle(out, baseline)
	return out, nil
}

// Evaluate answers every compiled policy over agg, indexed like the
// policies given to Compile; each result equals EvaluateMany's for the
// same policies, bit for bit, and so do the errors.
//
//lint:hotpath entry
func (c *Compiled) Evaluate(agg *interval.Aggregates) ([]Evaluation, error) {
	return c.evaluate(agg, nil)
}

// EvaluateMisses is Evaluate plus, from the same fold, each policy's
// induced re-fetches per 1000 intervals: rates[i] agrees with
// InducedMissRate over agg's distribution for the i-th policy to ulp
// scale.
func (c *Compiled) EvaluateMisses(agg *interval.Aggregates) ([]Evaluation, []float64, error) {
	rates := make([]float64, len(c.ps))
	out, err := c.evaluate(agg, rates)
	if err != nil {
		return nil, nil, err
	}
	// evaluate rejected a zero-mass agg, so it holds intervals.
	n := float64(agg.NumIntervals())
	for i := range rates {
		rates[i] = rates[i] * 1000 / n
	}
	return out, rates, nil
}
