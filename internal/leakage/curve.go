package leakage

// Piecewise-affine energy curves: the closed-form backbone of the
// aggregate fast path. Every builtin policy's IntervalEnergy, for a fixed
// flags value, is piecewise affine in the interval length with at most a
// handful of pieces (a threshold theta, a drowse window, an accuracy
// cutoff), so a policy evaluation over a whole distribution collapses to,
// per piece, const*count + slope*mass of the lengths falling in the
// piece — two prefix-sum lookups (interval.FlagsClass.Prefix, each an
// O(1) bracket from the class's value index and a short binary search)
// instead of a walk over every bucket. Each piece also carries its
// induced-miss count: the sleep decisions that charge CD are exactly the
// pieces that re-fetch, so the same two lookups answer misses*count too.
//
// Branch-boundary discipline: the reference implementations all branch on
// strict "float64(length) > threshold" comparisons (or their negations),
// and Prefix answers "float64(length) <= cut", so a piece end placed at
// the threshold reproduces the reference's branch decisions exactly.
// Conditions of the form "length >= k" with integer k are encoded as a
// piece end at k - 0.5 (interval lengths are integers, so no length falls
// between). The only inexactness the fast path admits is floating-point
// reassociation: a piece's const+slope*L regroups the reference's
// arithmetic, and prefix sums reorder the additions — both bounded by
// ulp-scale relative error, pinned by TestClosedFormsMatchReference.
//
// In-place building: curves are built left to right into a caller's
// *Curve, each builder pushing its pieces in ascending length order, so
// a composition never copies a curve (see Curve.push and switchAt). The
// pieces every builtin builds are pinned bit for bit by
// TestCurvesMatchGolden.

import "math"

// maxPieces bounds a Curve's pieces. Every builtin curve fits in 4 at
// every technology node, flags value and declared parameter
// (TestBuiltinsEvaluateAndModelMisses); a composition that would exceed
// it yields an invalid curve, which the aggregate kernels report as an
// error.
const maxPieces = 4

// inf ends a Curve's last piece.
var inf = math.Inf(1)

// piece is one affine segment of a Curve: over the lengths in
// (previous end, end] the curve's energy is cnst + slope*L and each
// interval is charged misses induced re-fetches.
type piece struct {
	end, cnst, slope, misses float64
}

// Curve is a piecewise-affine function of interval length L > 0, held
// inline (no heap slices) so building one per flags class allocates
// nothing. Piece ends ascend and the last one is +Inf. The zero Curve,
// and any composition that overflowed maxPieces, is invalid.
type Curve struct {
	p [maxPieces]piece
	n int // pieces in use; -1 once a push overflowed
}

// valid reports whether c holds a complete curve.
func (c *Curve) valid() bool { return c.n > 0 }

// push appends pc if it ends past the curve built so far (past 0 for the
// first piece): a piece ending at or below a switch point lies wholly on
// its low side and drops, so a bounded piece followed by the pieces of
// any curve composes "pc for L <= pc.end, that curve above" exactly as a
// switch would. Past maxPieces the curve turns invalid for good.
func (c *Curve) push(pc piece) {
	switch {
	case c.n < 0:
	case c.n == 0 && !(pc.end > 0), c.n > 0 && !(pc.end > c.p[c.n-1].end):
	case c.n == maxPieces:
		c.n = -1
	default:
		c.p[c.n] = pc
		c.n++
	}
}

// at returns the piece covering length L; c must be valid.
func (c *Curve) at(L float64) piece {
	i := 0
	for i < c.n-1 && L > c.p[i].end {
		i++
	}
	return c.p[i]
}

// Eval returns the curve's energy at length L.
func (c Curve) Eval(L float64) float64 {
	pc := c.at(L)
	return pc.cnst + pc.slope*L
}

// plus adds dc to the constant, ds to the slope (e.g. an always-leaking
// decay counter) and dm to the induced misses of every piece from index
// from on: the pieces a sub-build pushed, when from is c.n before it.
func (c *Curve) plus(from int, dc, ds, dm float64) {
	for i := from; i < c.n; i++ {
		c.p[i].cnst += dc
		c.p[i].slope += ds
		c.p[i].misses += dm
	}
}

// switchAt ends the curve built so far at cut — the shape of every
// "length > theta" policy branch: it holds for L <= cut, and the pieces
// pushed next hold for L > cut (those ending at or below cut drop). A
// cut <= 0 (or NaN) drops everything built so far, so the next pieces
// hold everywhere; +Inf keeps it everywhere and drops every next piece.
func (c *Curve) switchAt(cut float64) {
	if !(cut > 0) {
		c.n = 0
		return
	}
	for i := 0; i < c.n; i++ {
		if c.p[i].end >= cut {
			c.p[i].end = cut
			c.n = i + 1
			return
		}
	}
}

// pickBelow pushes the curve that equals the affine piece alt (end +Inf)
// wherever alt(L) is strictly below base(L), and base elsewhere — the
// dead-oracle's "gate whenever CD-free sleep beats the drowsy schedule"
// selection. Affine pieces cross at most once, so each base piece splits
// at most once at the analytic crossover; both sides agree at the
// crossover itself, so any ulp-level disagreement with the reference's
// per-bucket comparison moves only values equal to within ulps.
func (c *Curve) pickBelow(base []piece, alt piece) {
	lo := 0.0
	for _, b := range base {
		hi := b.end
		// Crossover of the two affine pieces inside (lo, hi), if any.
		if b.slope != alt.slope {
			if x := (alt.cnst - b.cnst) / (b.slope - alt.slope); x > lo && x < hi {
				c.push(lower(lo, x, b, alt))
				lo = x
			}
		}
		c.push(lower(lo, hi, b, alt))
		lo = hi
	}
}

// lower returns whichever of base and alt is strictly lower over
// (lo, end] — alt only when strictly below — as a piece ending at end.
func lower(lo, end float64, base, alt piece) piece {
	x := probe(lo, end)
	pc := base
	if alt.cnst+alt.slope*x < base.cnst+base.slope*x {
		pc = alt
	}
	pc.end = end
	return pc
}

// tagTransform applies the AMC tag-array correction to the decay base
// curve in c: wherever the base gated anything (slept(L) = PActive*L -
// base(L) > 0) the tag's share tf of the savings is given back, i.e. the
// value becomes (1-tf)*base(L) + tf*PActive*L. Per base piece slept is
// affine, so the sign changes at most once per piece. The tag array
// staying powered changes energy, not the re-fetch count.
func (c *Curve) tagTransform(tf, pActive float64) {
	if !c.valid() {
		return
	}
	base, n := c.p, c.n
	c.n = 0
	lo := 0.0
	for _, pc := range base[:n] {
		hi := pc.end
		if hi <= lo {
			continue
		}
		// slept(L) = (pActive-slope)*L - cnst; transformed piece value:
		tagged := pc
		tagged.cnst, tagged.slope = (1-tf)*pc.cnst, pc.slope+tf*(pActive-pc.slope)
		if d := pActive - pc.slope; d != 0 {
			if x := pc.cnst / d; x > lo && x < hi {
				c.push(gated(lo, x, pActive, pc, tagged))
				lo = x
			}
		}
		c.push(gated(lo, hi, pActive, pc, tagged))
		lo = hi
	}
}

// gated returns tagged where the base piece pc slept anything over
// (lo, end], pc otherwise, as a piece ending at end.
func gated(lo, end, pActive float64, pc, tagged piece) piece {
	if x := probe(lo, end); pActive*x-(pc.cnst+pc.slope*x) > 0 {
		pc = tagged
	}
	pc.end = end
	return pc
}

// probe returns a length strictly inside (lo, end], where one affine
// comparison decides the whole segment.
func probe(lo, end float64) float64 {
	if math.IsInf(end, 1) {
		return lo + 1
	}
	return (lo + end) / 2
}
