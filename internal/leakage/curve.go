package leakage

// Piecewise-affine energy curves: the closed-form backbone of the
// aggregate fast path. Every builtin policy's IntervalEnergy, for a fixed
// flags value, is piecewise affine in the interval length with at most a
// handful of pieces (a threshold theta, a drowse window, an accuracy
// cutoff), so a policy evaluation over a whole distribution collapses to,
// per piece, const*count + slope*mass of the lengths falling in the
// piece — two prefix-sum lookups (interval.FlagsClass.Prefix) instead of
// a walk over every bucket. Each piece also carries its induced-miss
// count: the sleep decisions that charge CD are exactly the pieces that
// re-fetch, so the same two lookups answer misses*count too.
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

import "math"

// maxPieces bounds a Curve's pieces. Every builtin curve fits in 4 at
// every technology node and flags value (TestClosedFormsMatchReference);
// a composition that would exceed it yields an invalid curve, which sends
// the whole evaluation down the reference walk.
const maxPieces = 4

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

// push appends a piece; past maxPieces the curve turns invalid for good.
func (c *Curve) push(pc piece) {
	switch {
	case c.n < 0:
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

// affine returns the single-piece, miss-free curve const + slope*L.
func affine(cnst, slope float64) Curve {
	return Curve{p: [maxPieces]piece{{end: math.Inf(1), cnst: cnst, slope: slope}}, n: 1}
}

// plus adds dc to every piece's constant, ds to its slope (e.g. an
// always-leaking decay counter) and dm to its induced misses.
func (c Curve) plus(dc, ds, dm float64) Curve {
	for i := 0; i < c.n; i++ {
		c.p[i].cnst += dc
		c.p[i].slope += ds
		c.p[i].misses += dm
	}
	return c
}

// switchAt composes the curve that equals low for L <= cut and high for
// L > cut — the shape of every "length > theta" policy branch. A cut <= 0
// (or NaN) selects high everywhere; +inf selects low everywhere.
func switchAt(cut float64, low, high Curve) Curve {
	if !(cut > 0) {
		return high
	}
	if math.IsInf(cut, 1) {
		return low
	}
	var out Curve
	if !low.valid() || !high.valid() {
		return out
	}
	for _, pc := range low.p[:low.n] {
		end := pc.end
		pc.end = math.Min(end, cut)
		out.push(pc)
		if end >= cut {
			break
		}
	}
	for _, pc := range high.p[:high.n] {
		if pc.end > cut { // pieces entirely below the switch point drop
			out.push(pc)
		}
	}
	return out
}

// pickBelow composes the curve that equals alt wherever alt(L) is
// strictly below base(L), and base elsewhere — the dead-oracle's "gate
// whenever CD-free sleep beats the drowsy schedule" selection. Affine
// pieces cross at most once, so each elementary segment of the merged
// piece ends splits at most once at the analytic crossover; both sides
// agree at the crossover itself, so any ulp-level disagreement with the
// reference's per-bucket comparison moves only values equal to within
// ulps.
func pickBelow(base, alt Curve) Curve {
	var out Curve
	if !base.valid() || !alt.valid() {
		return out
	}
	lo := 0.0
	for bi, ai := 0, 0; bi < base.n && ai < alt.n; {
		b, a := base.p[bi], alt.p[ai]
		hi := math.Min(b.end, a.end)
		// Crossover of the two affine pieces inside (lo, hi), if any.
		if b.slope != a.slope {
			if x := (a.cnst - b.cnst) / (b.slope - a.slope); x > lo && x < hi {
				out.push(lower(lo, x, b, a))
				lo = x
			}
		}
		out.push(lower(lo, hi, b, a))
		lo = hi
		if b.end == hi {
			bi++
		}
		if a.end == hi {
			ai++
		}
	}
	return out
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

// tagTransform applies the AMC tag-array correction to a decay base
// curve: wherever the base gated anything (slept(L) = PActive*L - base(L)
// > 0) the tag's share tf of the savings is given back, i.e. the value
// becomes (1-tf)*base(L) + tf*PActive*L. Per base piece slept is affine,
// so the sign changes at most once per piece. The tag array staying
// powered changes energy, not the re-fetch count.
func tagTransform(base Curve, tf, pActive float64) Curve {
	var out Curve
	if !base.valid() {
		return out
	}
	lo := 0.0
	for _, pc := range base.p[:base.n] {
		hi := pc.end
		if hi <= lo {
			continue
		}
		// slept(L) = (pActive-slope)*L - cnst; transformed piece value:
		tagged := pc
		tagged.cnst, tagged.slope = (1-tf)*pc.cnst, pc.slope+tf*(pActive-pc.slope)
		if d := pActive - pc.slope; d != 0 {
			if x := pc.cnst / d; x > lo && x < hi {
				out.push(gated(lo, x, pActive, pc, tagged))
				lo = x
			}
		}
		out.push(gated(lo, hi, pActive, pc, tagged))
		lo = hi
	}
	return out
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
