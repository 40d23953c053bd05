package interval

// Prefix-sum sufficient statistics for the evaluation fast path. Every
// builtin policy's IntervalEnergy is piecewise affine in the interval
// length for a fixed flags value (internal/leakage's closed forms), so
// evaluating a policy over a distribution reduces to, per flags class and
// per affine piece, "how many intervals and how much mass fall in this
// length range" — a binary search into sorted prefix arrays instead of a
// walk over every bucket. Aggregates is that summary: built once per
// Distribution and then shared read-only by any number of concurrent
// sweep points. The Suite caches the L1 caches' next to their
// distributions; the L2 study builds the L2 cache's per query. Either
// way, nothing reaches the distribution through it: the kernels fold
// aggregates only.

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
// branch decisions aligned bucket for bucket. A NaN cut compares like no
// length exceeds it, so it returns the whole class.
//
// Prefix is PrefixFrom without a hint: one binary search over the class.
func (c *FlagsClass) Prefix(cut float64) (count, mass uint64) {
	count, mass, _ = c.PrefixFrom(cut, -1)
	return count, mass
}

// PrefixFrom is Prefix with a search hint. It also returns next, the
// number of leading lengths at or below cut, which is the hint for the
// following call. When hint is such an answer for a nearby cut, as it is
// for a policy ladder folded class by class, the search gallops out from
// hint and costs O(log distance) instead of O(log len). A hint outside
// [0, len(Lengths)] searches the whole class. The answer never depends on
// the hint.
func (c *FlagsClass) PrefixFrom(cut float64, hint int) (count, mass uint64, next int) {
	// Every probe asks one question, float64(Lengths[i]) > cut, which is
	// false on a prefix of the class and true after it (false everywhere
	// for a NaN cut); the answer is the first index where it is true.
	// Galloping brackets that index in [lo, hi], then the binary search
	// (sort.Search semantics, inline: a closure capturing c and cut was
	// once this path's one allocation site) closes the bracket.
	n := len(c.Lengths)
	lo, hi := 0, n
	switch {
	case hint < 0 || hint > n:
	case hint < n && !(float64(c.Lengths[hint]) > cut):
		lo = hint + 1
		for step := 1; hint+step < n; step *= 2 {
			i := hint + step
			if float64(c.Lengths[i]) > cut {
				hi = i
				break
			}
			lo = i + 1
		}
	case hint > 0 && float64(c.Lengths[hint-1]) > cut:
		hi = hint - 1
		for step := 2; hint-step >= 0; step *= 2 {
			i := hint - step
			if !(float64(c.Lengths[i]) > cut) {
				lo = i + 1
				break
			}
			hi = i
		}
	default:
		lo, hi = hint, hint
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if float64(c.Lengths[mid]) > cut {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0, 0, 0
	}
	return c.CumCount[lo-1], c.CumMass[lo-1], lo
}

// Aggregates is an immutable prefix-sum summary of a Distribution,
// organized per flags class. Build it with NewAggregates once the
// distribution is final (no Add afterwards); it is then safe for
// concurrent use. It keeps no reference to the distribution.
type Aggregates struct {
	classes []FlagsClass

	numFrames    uint32
	totalCycles  uint64
	numIntervals uint64
	mass         uint64
}

// NewAggregates builds the prefix-sum summary of d. It returns nil for a
// nil distribution. It compacts d's sparse tail if anything was appended
// since the last compaction (see Each).
//
// It counts each flags value's distinct lengths first, then allocates
// every class exactly (the class list, and three slices per class) in
// ascending flags order and fills it: each class's dense row in
// ascending length, then its tail buckets, whose lengths are all longer
// than the dense rows'. The tail is sorted by (length, flags), so every
// class's Lengths come out ascending with no re-sort.
func NewAggregates(d *Distribution) *Aggregates {
	if d == nil {
		return nil
	}
	d.compact()
	var size [NumFlags]int
	for _, f := range d.present {
		for _, c := range d.rows[f][:d.maxLen[f]+1] {
			if c > 0 {
				size[f]++
			}
		}
	}
	for _, b := range d.tail {
		size[b.key&(NumFlags-1)]++
	}
	n := 0
	for _, k := range size {
		if k > 0 {
			n++
		}
	}
	a := &Aggregates{
		classes:      make([]FlagsClass, 0, n),
		numFrames:    d.NumFrames,
		totalCycles:  d.TotalCycles,
		numIntervals: d.NumIntervals(),
		mass:         d.Mass(),
	}
	var idx [NumFlags]int // flags → its class's index in a.classes
	for f, k := range size {
		if k == 0 {
			continue
		}
		idx[f] = len(a.classes)
		c := FlagsClass{
			Flags:    Flags(f),
			Lengths:  make([]uint64, 0, k),
			CumCount: make([]uint64, 0, k),
			CumMass:  make([]uint64, 0, k),
		}
		if row := d.rows[f]; row != nil {
			for length, count := range row[:d.maxLen[f]+1] {
				if count > 0 {
					c.add(uint64(length), count)
				}
			}
		}
		a.classes = append(a.classes, c)
	}
	for _, b := range d.tail {
		a.classes[idx[b.key&(NumFlags-1)]].add(b.key>>6, b.count)
	}
	return a
}

// add appends one bucket, longer than every bucket already in c.
func (c *FlagsClass) add(length, count uint64) {
	cumCount, cumMass := uint64(0), uint64(0)
	if n := len(c.Lengths); n > 0 {
		cumCount, cumMass = c.CumCount[n-1], c.CumMass[n-1]
	}
	c.Lengths = append(c.Lengths, length)
	c.CumCount = append(c.CumCount, cumCount+count)
	c.CumMass = append(c.CumMass, cumMass+length*count)
}

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
