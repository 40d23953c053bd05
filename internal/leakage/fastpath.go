package leakage

// The aggregate evaluation kernel: the paper's closed form per interval,
// folded over interval.Aggregates. Every builtin policy's curve
// (curvePolicy) answers one sweep point in O(classes x pieces): per
// class, each affine piece of the curve costs one prefix search,
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
// policy's curve over one class before moving to the next, so a policy
// ladder's searches in one class read the same index and arrays while
// they are still in cache. Within a class the policies share a cut
// memo, one entry per piece index: a ladder gives every curve the same
// drowsy break-even, wake and S1 cuts and moves only its sleep cut, so
// a cut equal to the previous one at its index reuses that answer
// instead of searching again. The memo is exact, since equal cuts get
// equal answers, and resets with each class.
//
// Each policy folds over one of two class sets. A policy whose curve for
// every flags value of the aggregate equals its curve for that value's
// edge kind (edgeOnly) folds over the aggregate's edge classes, the
// flags classes merged by edge kind; any other folds over the flags
// classes. The paper's sleep, drowsy and hybrid curves depend on the
// interval's length and edge kind only (WBEnergy is 0 at its four
// nodes), so a theta ladder searches each cut once per edge kind, not
// once per flags class.
//
// Every builtin declares the flag bits its curve reads at a technology
// (curvePolicy.reads): its curve for f equals its curve for f masked by
// them. Both kernels use the mask to skip builds whose result it
// implies; neither decides anything from the mask alone, since a mask
// may over-approximate.
//
// Two kernels remain over the fold: EvaluateMany is its one-aggregate
// case, and Compiled its many-aggregate case, so a sweep's benchmarks
// share one curve table. Compile keys the table's rows by a flags value masked by
// the union of the list's masks: it builds a row for the first flags
// value present of each key, and for each edge kind of those whose key
// has no row yet, and points every other value of a key at its row.
// Rows may still come out equal across keys (DirtyAwareHybrid reads
// Dirty, but at WBEnergy 0 its curve does not change), so the table
// keeps one row per distinct set of curves. At the paper's nodes a theta
// ladder reads only the edge bits and builds at most four rows. Compile
// names no policy (EvaluateMany does): no sweep, frontier or figure
// reads the names. Curves are built in place (curvePolicy.build).
//
// Determinism: the choice of class set depends only on the (technology,
// aggregates, policy) triple: EvaluateMany compares curves it builds,
// Compiled reads the comparisons Compile made, both compare the same
// curves, and the mask only skips comparisons it decides. Per policy,
// classes fold in ascending order and pieces in ascending length order
// whatever the batch, so a given triple produces bit-identical energy,
// baseline and savings through both kernels and at any position in the
// policy list, whatever the memo hits
// (TestThetaPointBitsDoNotDependOnList). Against the reference path the
// values agree to ulp-scale relative error (the prefix sums are exact
// uint64; only the float regrouping differs) — pinned by
// TestEvaluateAggregateMatchesReference, TestEdgeFoldChoice and
// FuzzEvaluateFastPath.

import (
	"fmt"
	"math/bits"
	"slices"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// cutMemo is one piece index's last prefix search in a flags class: the
// cut and its answer. Equal float64 cuts get equal Prefix answers, so a
// hit is exact; NaN never compares equal, and piece ends are positive
// (Curve.push), so a zeroed entry matches no cut.
type cutMemo struct {
	end         float64
	count, mass uint64
}

// foldClass folds one curve's pieces over one flags class via prefix
// differences: the energy sum over pieces of cnst*Δcount + slope*Δmass,
// and from the same lookups the induced misses, misses*Δcount. A piece
// whose cut equals memo's at its index reuses that answer; any other
// searches and stores its own.
func foldClass(pcs []piece, cls *interval.FlagsClass, memo *[maxPieces]cutMemo) (energy, misses float64) {
	var prevCount, prevMass uint64
	last := len(pcs) - 1
	for j := range pcs {
		pc := &pcs[j]
		var count, mass uint64
		switch m := &memo[j]; {
		case j == last:
			count, mass = cls.TotalCount(), cls.TotalMass()
		case m.end == pc.end:
			count, mass = m.count, m.mass
		default:
			count, mass = cls.Prefix(pc.end)
			*m = cutMemo{end: pc.end, count: count, mass: mass}
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
	// compiled has bit f set when flags value f has a row.
	compiled uint64
	pol      []tablePolicy // indexed like the policies
}

// tablePolicy is what a curveTable keeps of one policy: the flag bits
// its curve reads (curvePolicy.reads), and in edge bit f for each
// compiled flags value f whose curve equals the policy's curve for f's
// edge kind.
type tablePolicy struct {
	edge  uint64
	reads interval.Flags
}

// errOverflow reports that policy i's curve for flags needs more than
// maxPieces pieces.
func errOverflow(i int, p Policy, flags interval.Flags) error {
	return fmt.Errorf("leakage: policy %d (%s): curve for flags %v needs more than %d pieces", i, p.Name(), flags, maxPieces)
}

// curveOf builds p's curve for flags: the kernels' one dynamic curve
// build. p is a curvePolicy (checkPolicies).
func curveOf(t *power.Technology, p Policy, flags interval.Flags) Curve {
	//lint:ignore hotalloc one virtual EnergyCurve dispatch returning an inline Curve, per (policy, flags value) the fold or its edge check meets without a table row; TestAggregateKernelsDoNotAllocate pins EvaluateMany at its one result-slice alloc
	return p.(curvePolicy).EnergyCurve(*t, flags)
}

// readsOf returns the flag bits p's curve reads at t: the one dynamic
// call a fold without a table makes per policy to skip curve builds.
// p is a curvePolicy (checkPolicies).
func readsOf(t *power.Technology, p Policy) interval.Flags {
	//lint:ignore hotalloc one virtual reads dispatch per policy per fold without a table, returning a Flags and taking the technology by value so nothing escapes; TestAggregateKernelsDoNotAllocate pins EvaluateMany at its one result-slice alloc
	return p.(curvePolicy).reads(*t)
}

// equal reports whether c and o are the same valid curve, piece for
// piece.
func (c *Curve) equal(o *Curve) bool {
	return c.valid() && c.n == o.n && slices.Equal(c.p[:c.n], o.p[:o.n])
}

// edgeOnly reports whether policy i, p, folds over the edge classes of
// an aggregate whose flags classes are the bits of present: whether its
// curve for every one of those flags values equals its curve for the
// value's edge kind. tab (possibly nil) answers for the values it
// compiled. For any other value edgeOnly builds the edge kind's curve
// and, unless the policy's mask implies the answer (the value and its
// edge kind agree on every bit the curve reads), the value's curve too.
// An invalid curve is never equal, so the fold over the flags classes
// meets it and reports the overflow. The answer depends only on the
// technology, the aggregate and the policy, never on the rest of the
// list or the kernel; the mask only skips builds.
func edgeOnly(t *power.Technology, p Policy, i int, tab *curveTable, present uint64) bool {
	var reads interval.Flags
	if tab != nil {
		if present&tab.compiled&^tab.pol[i].edge != 0 {
			return false
		}
		present &^= tab.compiled
		reads = tab.pol[i].reads
	} else {
		reads = readsOf(t, p)
	}
	for present != 0 {
		kind := interval.Flags(bits.TrailingZeros64(present)).Edge()
		rep := curveOf(t, p, kind)
		if !rep.valid() {
			return false
		}
		for m := present; m != 0; m &= m - 1 {
			f := interval.Flags(bits.TrailingZeros64(m))
			if f.Edge() != kind {
				continue
			}
			present &^= 1 << f
			if f&reads == kind&reads {
				continue
			}
			if c := curveOf(t, p, f); !c.equal(&rep) {
				return false
			}
		}
	}
	return true
}

// fold is the one class-major fold behind every aggregate kernel. It
// accumulates each policy's energy into out[i].Energy and its induced
// misses into ms[i] (ms may be nil). A policy whose curves depend only
// on the edge kind for agg's flags values (edgeOnly) folds over agg's
// edge classes, any other over its flags classes; it takes the policies
// 64 at a time, so the choice fits one word.
func fold(t *power.Technology, agg *interval.Aggregates, ps []Policy, tab *curveTable, out []Evaluation, ms []float64) error {
	classes, edges := agg.Classes(), agg.EdgeClasses()
	var present uint64
	for k := range classes {
		present |= 1 << classes[k].Flags
	}
	for lo := 0; lo < len(ps); lo += 64 {
		part := ps[lo:min(lo+64, len(ps))]
		var edge uint64
		for j, p := range part {
			if edgeOnly(t, p, lo+j, tab, present) {
				edge |= 1 << j
			}
		}
		all := ^uint64(0) >> (64 - len(part))
		if err := foldClasses(t, classes, part, lo, all&^edge, tab, out, ms); err != nil {
			return err
		}
		if err := foldClasses(t, edges, part, lo, edge, tab, out, ms); err != nil {
			return err
		}
	}
	return nil
}

// foldClasses folds the curve of every policy ps[j] with bit j set in
// sel over each class in ascending order, as policy lo+j of the list. A
// class whose flags tab compiled (tab may be nil) reads its curves from
// the table, any other builds them inline; an inline curve that
// overflows is an error. Each class starts a fresh cut memo that its
// policies' folds share.
func foldClasses(t *power.Technology, classes []interval.FlagsClass, ps []Policy, lo int, sel uint64, tab *curveTable, out []Evaluation, ms []float64) error {
	if sel == 0 {
		return nil
	}
	for k := range classes {
		cls := &classes[k]
		var row *curveRow
		if tab != nil {
			if r := tab.rowOf[cls.Flags]; r > 0 {
				row = &tab.rows[r-1]
			}
		}
		var memo [maxPieces]cutMemo
		for s := sel; s != 0; s &= s - 1 {
			j := bits.TrailingZeros64(s)
			i := lo + j
			var pcs []piece
			if row != nil {
				sp := row.spans[i]
				pcs = row.pieces[sp.off : sp.off+sp.n]
			} else {
				c := curveOf(t, ps[j], cls.Flags)
				if !c.valid() {
					return errOverflow(i, ps[j], cls.Flags)
				}
				pcs = c.p[:c.n]
			}
			e, m := foldClass(pcs, cls, &memo)
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
		//lint:ignore hotalloc one Name dispatch per policy per call (parameterized names format here); sweeps over several aggregates go through Compile, which names none
		out[i].Policy = p.Name()
	}
	if err := fold(&t, agg, ps, nil, out, nil); err != nil {
		return nil, err
	}
	settle(out, baseline)
	return out, nil
}

// Compiled is a policy list prepared for evaluation over many
// aggregates: the technology validated once, each policy's flag mask
// read once, and each policy's curve built once per distinct masked
// flags value among those present in the aggregates given to Compile
// and their edge kinds. It names no policy: its results carry an empty
// Policy, and a caller that shows names has the policies it compiled. It
// is read-only after Compile, so any number of goroutines may evaluate
// through it at once.
type Compiled struct {
	t   power.Technology
	ps  []Policy
	tab curveTable
}

// Compile prepares ps for evaluation at t over aggs (nil entries are
// skipped). Aggregates need not be listed to be evaluated later: a class
// whose flags no listed aggregate holds builds its curves inline. The
// errors are EvaluateMany's; a curve that overflows for a flags value
// present in aggs fails Compile, for any other value the evaluation that
// meets it.
//
// Rows are keyed by a flags value masked by U, the union of the
// policies' masks (curvePolicy.reads): every policy's curve for f equals
// its curve for f&U, so the flags values of one key share one row. Taking
// the present values in ascending order, the first of each key builds
// its row, so an overflow names the same policy and flags value as a
// build of every value would; each later one points at that row. Curves
// are built in place through one curveEnv, so the technology is neither
// copied per curve nor its inflection point recomputed.
func Compile(t power.Technology, ps []Policy, aggs ...*interval.Aggregates) (*Compiled, error) {
	if err := checkPolicies(&t, ps); err != nil {
		return nil, err
	}
	c := &Compiled{t: t, ps: slices.Clone(ps)}
	c.tab.pol = make([]tablePolicy, len(ps))
	var union interval.Flags
	for i, p := range c.ps {
		c.tab.pol[i].reads = p.(curvePolicy).reads(t)
		union |= c.tab.pol[i].reads
	}
	var present uint64
	for _, agg := range aggs {
		if agg == nil {
			continue
		}
		for k := range agg.Classes() {
			present |= 1 << agg.Classes()[k].Flags
		}
	}
	// Each present value's edge kind gets a row too, when it is not
	// present itself: edgeOnly compares against it, and an edge class of
	// that kind folds with it. No more rows than keys are built.
	var kinds, keys uint64
	for m := present; m != 0; m &= m - 1 {
		f := interval.Flags(bits.TrailingZeros64(m))
		kinds |= 1 << f.Edge()
		keys |= 1 << (f & union)
	}
	for m := kinds; m != 0; m &= m - 1 {
		keys |= 1 << (interval.Flags(bits.TrailingZeros64(m)) & union)
	}
	c.tab.rows = make([]curveRow, 0, bits.OnesCount64(keys))
	env := &curveEnv{Technology: &c.t}
	curve := new(Curve)
	// Each row is staged, then copied out only if no earlier row holds it.
	spans := make([]span, len(ps))
	pieces := make([]piece, 0, maxPieces*len(ps))
	var keyRow [interval.NumFlags]int32 // masked flags → its rowOf entry
	for m := present; m != 0; m &= m - 1 {
		f := interval.Flags(bits.TrailingZeros64(m))
		key := &keyRow[f&union]
		if *key == 0 {
			pieces = pieces[:0]
			for i, p := range c.ps {
				curve.n = 0
				p.(curvePolicy).build(curve, env, f)
				if !curve.valid() {
					return nil, errOverflow(i, p, f)
				}
				spans[i] = span{off: int32(len(pieces)), n: int32(curve.n)}
				pieces = append(pieces, curve.p[:curve.n]...)
			}
			*key = c.tab.row(spans, pieces)
		}
		c.tab.rowOf[f] = *key
		c.tab.compiled |= 1 << f
	}
	for m := kinds; m != 0; m &= m - 1 {
		kind := interval.Flags(bits.TrailingZeros64(m))
		c.edgeRow(kind, &keyRow[kind&union], env, curve, spans, pieces[:0])
	}
	return c, nil
}

// edgeRow sets policy i's edge bit for every present flags value of edge
// kind kind whose curve of policy i equals the policy's curve for kind.
// When kind is not present itself, it takes the row of its key (*key)
// if there is one; otherwise it stages kind's curves in spans and pieces
// and compiles them as kind's row, and its key's, unless one overflowed
// (an overflowing curve stages as n == 0 and equals nothing). A flags
// value that shares kind's row has every curve of kind, and so does, per
// policy, a value that agrees with kind on every bit the policy reads, so
// only the rest compare curves.
func (c *Compiled) edgeRow(kind interval.Flags, key *int32, env *curveEnv, curve *Curve, spans []span, pieces []piece) {
	tab := &c.tab
	if tab.rowOf[kind] == 0 {
		if *key == 0 {
			whole := true
			for i, p := range c.ps {
				curve.n = 0
				p.(curvePolicy).build(curve, env, kind)
				if !curve.valid() {
					spans[i], whole = span{}, false
					continue
				}
				spans[i] = span{off: int32(len(pieces)), n: int32(curve.n)}
				pieces = append(pieces, curve.p[:curve.n]...)
			}
			if whole {
				*key = tab.row(spans, pieces)
			}
		}
		if *key > 0 {
			tab.rowOf[kind] = *key
			tab.compiled |= 1 << kind
		}
	}
	rep := curveRow{spans: spans, pieces: pieces}
	if r := tab.rowOf[kind]; r > 0 {
		rep = tab.rows[r-1]
	}
	for f, r := range tab.rowOf {
		switch {
		case r == 0 || interval.Flags(f).Edge() != kind:
		case r == tab.rowOf[kind]:
			for i := range tab.pol {
				tab.pol[i].edge |= 1 << f
			}
		default:
			row := &tab.rows[r-1]
			for i, sp := range rep.spans {
				pol := &tab.pol[i]
				if own := row.spans[i]; sp.n > 0 && (interval.Flags(f)&pol.reads == kind&pol.reads ||
					slices.Equal(row.pieces[own.off:own.off+own.n], rep.pieces[sp.off:sp.off+sp.n])) {
					pol.edge |= 1 << f
				}
			}
		}
	}
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
	if err := fold(&c.t, agg, c.ps, &c.tab, out, ms); err != nil {
		return nil, err
	}
	settle(out, baseline)
	return out, nil
}

// Evaluate answers every compiled policy over agg, indexed like the
// policies given to Compile. Each result's Energy, Baseline and Savings
// equal EvaluateMany's for the same policies, bit for bit, and so do the
// errors; its Policy is empty.
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
