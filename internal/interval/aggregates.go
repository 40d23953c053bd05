package interval

// Prefix-sum sufficient statistics for the evaluation fast path. Every
// builtin policy's IntervalEnergy is piecewise affine in the interval
// length for a fixed flags value (internal/leakage's closed forms), so
// evaluating a policy over a distribution reduces to, per flags class and
// per affine piece, "how many intervals and how much mass fall in this
// length range" — a binary search into sorted prefix arrays instead of a
// walk over every bucket. Aggregates is that summary: built once per
// Distribution (the Suite caches it next to the distribution itself) and
// then shared read-only by any number of concurrent sweep points.

import "sort"

// FlagsClass is the prefix-sum summary of one flags value: the distinct
// interval lengths recorded under that flags combination in ascending
// order, with cumulative interval counts and cumulative mass
// (sum of length*count, exact in uint64). The leading/trailing/untouched
// decompositions the policy formulas dispatch on are preserved exactly,
// because the dispatch key — the flags value — is the class key.
type FlagsClass struct {
	// Flags is the class key every bucket in this class carries.
	Flags Flags
	// Lengths holds the distinct bucket lengths, strictly ascending.
	Lengths []uint64
	// CumCount[i] is the total interval count over Lengths[0..i].
	CumCount []uint64
	// CumMass[i] is the total mass (sum length*count) over Lengths[0..i].
	CumMass []uint64
}

// TotalCount returns the class's interval count.
func (c *FlagsClass) TotalCount() uint64 {
	if len(c.CumCount) == 0 {
		return 0
	}
	return c.CumCount[len(c.CumCount)-1]
}

// TotalMass returns the class's mass (summed lengths).
func (c *FlagsClass) TotalMass() uint64 {
	if len(c.CumMass) == 0 {
		return 0
	}
	return c.CumMass[len(c.CumMass)-1]
}

// Prefix returns the interval count and mass of the buckets whose length,
// converted to float64, is <= cut — the half-open complement of the
// policies' strict "length > threshold" branch conditions, so a piecewise
// policy evaluates each piece as a difference of two Prefix queries.
// Comparison happens in float64 exactly as the reference path compares
// float64(length) against its thresholds, keeping the two paths'
// branch decisions aligned bucket for bucket.
func (c *FlagsClass) Prefix(cut float64) (count, mass uint64) {
	// Inline binary search (sort.Search semantics: smallest i with
	// float64(Lengths[i]) > cut) — Prefix runs twice per policy piece per
	// flags class on the closed-form fast path, and the sort.Search
	// closure capturing c and cut was the path's one allocation site.
	lo, hi := 0, len(c.Lengths)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if float64(c.Lengths[mid]) > cut {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0, 0
	}
	return c.CumCount[lo-1], c.CumMass[lo-1]
}

// Aggregates is an immutable prefix-sum summary of a Distribution,
// organized per flags class. Build it with NewAggregates once the
// distribution is final (no Add afterwards); it is then safe for
// concurrent use.
type Aggregates struct {
	src     *Distribution
	classes []FlagsClass

	numFrames    uint32
	totalCycles  uint64
	numIntervals uint64
	mass         uint64
}

// NewAggregates builds the prefix-sum summary of d in one ordered walk.
// It returns nil for a nil distribution. The walk compacts d's sparse
// tail if anything was appended since the last compaction (see Each).
func NewAggregates(d *Distribution) *Aggregates {
	if d == nil {
		return nil
	}
	a := &Aggregates{
		src:          d,
		numFrames:    d.NumFrames,
		totalCycles:  d.TotalCycles,
		numIntervals: d.NumIntervals(),
		mass:         d.Mass(),
	}
	var idx [flagSpace]int
	for i := range idx {
		idx[i] = -1
	}
	// Each yields ascending (length, flags); collecting per class keeps
	// every class's Lengths ascending without any re-sort.
	d.Each(func(length uint64, flags Flags, count uint64) bool {
		j := idx[flags]
		if j < 0 {
			j = len(a.classes)
			idx[flags] = j
			a.classes = append(a.classes, FlagsClass{Flags: flags})
		}
		c := &a.classes[j]
		cumCount, cumMass := uint64(0), uint64(0)
		if n := len(c.Lengths); n > 0 {
			cumCount, cumMass = c.CumCount[n-1], c.CumMass[n-1]
		}
		c.Lengths = append(c.Lengths, length)
		c.CumCount = append(c.CumCount, cumCount+count)
		c.CumMass = append(c.CumMass, cumMass+length*count)
		return true
	})
	// Classes surface in first-appearance order of the length-major walk;
	// fix them to ascending flags value so every consumer folds classes in
	// one deterministic order.
	sort.Slice(a.classes, func(i, j int) bool { return a.classes[i].Flags < a.classes[j].Flags })
	return a
}

// Source returns the distribution the aggregates were built from — the
// reference path for policies without a closed form.
func (a *Aggregates) Source() *Distribution { return a.src }

// Classes returns the per-flags summaries in ascending flags order.
// Callers must not mutate the returned slice.
func (a *Aggregates) Classes() []FlagsClass { return a.classes }

// NumFrames returns the source distribution's frame count.
func (a *Aggregates) NumFrames() uint32 { return a.numFrames }

// TotalCycles returns the source distribution's time horizon.
func (a *Aggregates) TotalCycles() uint64 { return a.totalCycles }

// NumIntervals returns the total recorded interval count.
func (a *Aggregates) NumIntervals() uint64 { return a.numIntervals }

// Mass returns the summed interval lengths (frame-cycles).
func (a *Aggregates) Mass() uint64 { return a.mass }
