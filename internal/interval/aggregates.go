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
// aggregates only. Besides the flags classes it holds the edge classes,
// the same buckets merged by edge kind (Flags.Edge), which a policy
// whose curve depends only on the edge kind folds instead.
//
// Each class also carries a value index over its lengths (newIndex): 256
// buckets per binade of float64(length), each holding how many lengths
// lie below its start. A cut's bucket is read off its bit pattern, so
// Prefix finds its search's bracket in O(1) and binary-searches only the
// few lengths inside it, instead of probing across the class's sorted
// arrays (megabytes at scale 1, one cache miss per probe).

import "math"

// FlagsClass is the prefix-sum summary of one flags value: the distinct
// interval lengths recorded under that flags combination in ascending
// order, with cumulative interval counts and cumulative mass
// (sum of length*count, exact in uint64). The leading/trailing/untouched
// decompositions the policy formulas dispatch on are preserved exactly,
// because the dispatch key — the flags value — is the class key.
type FlagsClass struct {
	// Flags is the class key every bucket in this class carries.
	Flags Flags
	// Lengths holds the distinct bucket lengths, strictly ascending and
	// each at least 1 (a Distribution records no zero-length interval).
	Lengths []uint64
	// CumCount[i] is the total interval count over Lengths[0..i].
	CumCount []uint64
	// CumMass[i] is the total mass (sum length*count) over Lengths[0..i].
	CumMass []uint64

	// index is the value index Prefix brackets its search with (newIndex).
	index []uint32
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
func (c *FlagsClass) Prefix(cut float64) (count, mass uint64) {
	// The answer is the first index where float64(Lengths[i]) > cut,
	// which is false on a prefix of the class and true after it (false
	// everywhere for a NaN cut). The value index brackets it in [lo, hi],
	// and a binary search (sort.Search semantics, inline: a closure
	// capturing c and cut would allocate) closes the bracket.
	lo, hi := 0, len(c.Lengths)
	switch b := bucketOf(cut); {
	case cut < 1:
		hi = 0 // every length is at least 1
	case b+1 >= len(c.index):
		lo = hi // past the table: +Inf, and NaN, whose exponent is all ones
	default:
		lo, hi = int(c.index[b]), int(c.index[b+1])
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
		return 0, 0
	}
	return c.CumCount[lo-1], c.CumMass[lo-1]
}

// indexBits is the value index's resolution: 2^indexBits buckets per
// binade of float64(length).
const indexBits = 8

// bucketOf returns the value-index bucket of x >= 1: its binade above 1
// and the top indexBits bits of its mantissa, read off its bit pattern.
// Buckets ascend with x, so bucket b's start is the smallest float64 in
// it. A positive x < 1 has a negative bucket; +Inf, NaN and any negative
// x have one past every length's, so Prefix tests x < 1 first.
func bucketOf(x float64) int {
	return int(math.Float64bits(x)>>(52-indexBits)) - 1023<<indexBits
}

// newIndex builds the value index of lengths, ascending and each at
// least 1: index[b] is the number of lengths whose float64 lies below
// bucket b's start, so the lengths in bucket b sit at [index[b],
// index[b+1]). It runs one bucket past the longest length's, where every
// length is below the start, and is sized exactly.
func newIndex(lengths []uint64) []uint32 {
	top := -1
	if n := len(lengths); n > 0 {
		top = bucketOf(float64(lengths[n-1]))
	}
	index := make([]uint32, top+2)
	i := 0
	for b := range index {
		for i < len(lengths) && bucketOf(float64(lengths[i])) < b {
			i++
		}
		index[b] = uint32(i)
	}
	return index
}

// Aggregates is an immutable prefix-sum summary of a Distribution,
// organized per flags class, and again per edge class: the flags classes
// merged by edge kind (Flags.Edge), for policies whose energy depends on
// an interval's length and edge kind only. Build it with NewAggregates
// once the distribution is final (no Add afterwards); it is then safe
// for concurrent use. It keeps no reference to the distribution.
type Aggregates struct {
	classes []FlagsClass
	edges   []FlagsClass

	numFrames    uint32
	totalCycles  uint64
	numIntervals uint64
	mass         uint64
}

// NewAggregates builds the prefix-sum summary of d. It returns nil for a
// nil distribution. It compacts d's tail if anything was appended since
// the last compaction (see Each).
//
// It walks d twice in Each's (length, flags) order. The first walk
// counts each flags value's distinct lengths, and each edge kind's: a
// length seen under several flags of one kind counts once, and the walk
// meets those flags one after another. Then it allocates every class
// exactly (the class lists, and three slices per class) in ascending
// flags order, and the second walk fills them: each walk step appends to
// its flags class and appends to, or merges into the last bucket of, its
// edge class, so every class's Lengths come out ascending with no
// re-sort. Last, each class gets its value index, the fourth exact-size
// slice. An edge kind with a single member flags value shares that
// class's four slices.
func NewAggregates(d *Distribution) *Aggregates {
	if d == nil {
		return nil
	}
	d.compact()
	var size, edgeSize, members [NumFlags]int
	var edgeLast [NumFlags]uint64
	var member [NumFlags]Flags // edge kind → a member flags value
	d.Each(func(length uint64, f Flags, _ uint64) bool {
		if size[f] == 0 {
			members[f.Edge()]++
			member[f.Edge()] = f
		}
		size[f]++
		if k := f.Edge(); edgeLast[k] != length {
			edgeLast[k] = length
			edgeSize[k]++
		}
		return true
	})
	n, ne := 0, 0
	for f := range size {
		if size[f] > 0 {
			n++
		}
		if edgeSize[f] > 0 {
			ne++
		}
	}
	a := &Aggregates{
		classes:      make([]FlagsClass, 0, n),
		edges:        make([]FlagsClass, ne),
		numFrames:    d.NumFrames,
		totalCycles:  d.TotalCycles,
		numIntervals: d.NumIntervals(),
		mass:         d.Mass(),
	}
	// flags → its class's index in a.classes, edge kind → its in a.edges.
	var idx, edge [NumFlags]int
	for f, k := range size {
		if k == 0 {
			continue
		}
		idx[f] = len(a.classes)
		a.classes = append(a.classes, newClass(Flags(f), k))
	}
	e := 0
	for f, k := range edgeSize {
		if k == 0 {
			continue
		}
		edge[f] = e
		if members[f] > 1 {
			a.edges[e] = newClass(Flags(f), k)
		}
		e++
	}
	d.Each(func(length uint64, f Flags, count uint64) bool {
		a.classes[idx[f]].add(length, count)
		if k := f.Edge(); members[k] > 1 {
			a.edges[edge[k]].merge(length, count)
		}
		return true
	})
	for k := range a.classes {
		a.classes[k].index = newIndex(a.classes[k].Lengths)
	}
	for f, k := range edgeSize {
		if k == 0 {
			continue
		}
		e := &a.edges[edge[f]]
		if members[f] > 1 {
			e.index = newIndex(e.Lengths)
		} else {
			*e = a.classes[idx[member[f]]]
			e.Flags = Flags(f)
		}
	}
	return a
}

// newClass returns an empty class for flags with room for k buckets.
func newClass(flags Flags, k int) FlagsClass {
	return FlagsClass{
		Flags:    flags,
		Lengths:  make([]uint64, 0, k),
		CumCount: make([]uint64, 0, k),
		CumMass:  make([]uint64, 0, k),
	}
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

// merge adds one bucket at least as long as every bucket already in c:
// into c's last bucket when the lengths are equal, as a new one past it
// otherwise.
func (c *FlagsClass) merge(length, count uint64) {
	if n := len(c.Lengths); n > 0 && c.Lengths[n-1] == length {
		c.CumCount[n-1] += count
		c.CumMass[n-1] += length * count
		return
	}
	c.add(length, count)
}

// Classes returns the per-flags summaries in ascending flags order.
// Callers must not mutate the returned slice.
func (a *Aggregates) Classes() []FlagsClass { return a.classes }

// EdgeClasses returns the classes merged by edge kind, in ascending
// order: at most four, each keyed by its edge kind (Flags.Edge) and
// holding every bucket of the flags classes of that kind. Counts and
// masses are exact sums, so an edge class's Prefix equals the sum of its
// members' at every cut. Callers must not mutate the returned slice.
func (a *Aggregates) EdgeClasses() []FlagsClass { return a.edges }

// NumFrames returns the source distribution's frame count.
func (a *Aggregates) NumFrames() uint32 { return a.numFrames }

// TotalCycles returns the source distribution's time horizon.
func (a *Aggregates) TotalCycles() uint64 { return a.totalCycles }

// NumIntervals returns the total recorded interval count.
func (a *Aggregates) NumIntervals() uint64 { return a.numIntervals }

// Mass returns the summed interval lengths (frame-cycles).
func (a *Aggregates) Mass() uint64 { return a.mass }
