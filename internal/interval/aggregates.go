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

import (
	"math"
	"math/bits"
)

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
	b := 0
	for i, l := range lengths {
		for lb := bucketOf(float64(l)); b <= lb; b++ {
			index[b] = uint32(i)
		}
	}
	for ; b < len(index); b++ {
		index[b] = uint32(len(lengths))
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
// It counts before it allocates. The packed tail's buckets per flags
// value and distinct lengths per edge kind were counted when compact
// packed it. Each dense row is counted on its own, and marks its lengths
// in its edge kind's occupancy bitmap, whose population is the kind's
// distinct dense lengths. Then it allocates every class exactly (the
// class lists, and three slices per class) in ascending flags order and
// fills them: each flags class from its dense row, each edge class of
// several members at its bitmap's lengths, with the members' counts
// summed, and then both from the one decode of the tail, which appends
// to its flags class and appends to, or merges into the last bucket of,
// its edge class. So every class's Lengths come out ascending with no
// re-sort. Last, each class gets its value index, the fourth exact-size
// slice. An edge kind with a single member flags value shares that
// class's four slices.
func NewAggregates(d *Distribution) *Aggregates {
	if d == nil {
		return nil
	}
	d.compact()
	size, edgeSize := d.tailSize, d.tailEdgeSize
	// Every flags value with a dense row has a bucket there, since a row
	// is made only by the Add that fills it.
	var has uint64
	for _, f := range d.present {
		has |= 1 << f
	}
	for f, n := range size {
		if n > 0 {
			has |= 1 << f
		}
	}
	var members [NumFlags]int
	var member [NumFlags]Flags // edge kind → a member flags value
	for m := has; m != 0; m &= m - 1 {
		f := Flags(bits.TrailingZeros64(m))
		members[f.Edge()]++
		member[f.Edge()] = f
	}
	// edge kind → its class's index in a.edges, and its occupancy bitmap.
	var edge [NumFlags]int
	ne := 0
	for k, n := range members {
		if n > 0 {
			edge[k] = ne
			ne++
		}
	}
	var occ [4][denseLimit / 64]uint64
	for _, f := range d.present {
		o := &occ[edge[Flags(f).Edge()]]
		for l, c := range d.rows[f][:d.maxLen[f]+1] {
			if c != 0 {
				size[f]++
				o[l>>6] |= 1 << (l & 63)
			}
		}
	}
	for k, n := range members {
		if n > 1 {
			for _, w := range occ[edge[k]] {
				edgeSize[k] += bits.OnesCount64(w)
			}
		}
	}
	a := &Aggregates{
		classes:      make([]FlagsClass, 0, bits.OnesCount64(has)),
		edges:        make([]FlagsClass, ne),
		numFrames:    d.NumFrames,
		totalCycles:  d.TotalCycles,
		numIntervals: d.NumIntervals(),
		mass:         d.Mass(),
	}
	var idx [NumFlags]int // flags → its class's index in a.classes
	for m := has; m != 0; m &= m - 1 {
		f := Flags(bits.TrailingZeros64(m))
		idx[f] = len(a.classes)
		a.classes = append(a.classes, newClass(f, size[f]))
	}
	for _, f := range d.present {
		a.classes[idx[f]].addRow(d.rows[f][:d.maxLen[f]+1])
	}
	for k, n := range members {
		if n < 2 {
			continue
		}
		e := &a.edges[edge[k]]
		*e = newClass(Flags(k), edgeSize[k])
		var rows [NumFlags / 4][]uint64 // the kind's dense rows: 4 bits vary within a kind
		nr := 0
		for _, f := range d.present {
			if Flags(f).Edge() == Flags(k) {
				rows[nr] = d.rows[f][:d.maxLen[f]+1]
				nr++
			}
		}
		for w, word := range occ[edge[k]] {
			for ; word != 0; word &= word - 1 {
				l := w<<6 | bits.TrailingZeros64(word)
				var count uint64
				for _, row := range rows[:nr] {
					if l < len(row) {
						count += row[l]
					}
				}
				e.add(uint64(l), count)
			}
		}
	}
	var buf [64]tailBucket
	for r := (tailReader{buf: d.packed}); ; {
		n := r.read(buf[:])
		if n == 0 {
			break
		}
		for _, b := range buf[:n] {
			length, f := b.key>>6, Flags(b.key&(NumFlags-1))
			a.classes[idx[f]].add(length, b.count)
			if k := f.Edge(); members[k] > 1 {
				a.edges[edge[k]].merge(length, b.count)
			}
		}
	}
	for k := range a.classes {
		a.classes[k].index = newIndex(a.classes[k].Lengths)
	}
	for k, n := range members {
		if n == 0 {
			continue
		}
		e := &a.edges[edge[k]]
		if n > 1 {
			e.index = newIndex(e.Lengths)
		} else {
			*e = a.classes[idx[member[k]]]
			e.Flags = Flags(k)
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

// addRow appends the buckets of a dense row, row[length] the count at
// length, to the empty class c, keeping the running sums in registers.
func (c *FlagsClass) addRow(row []uint64) {
	lengths, cumCount, cumMass := c.Lengths, c.CumCount, c.CumMass
	var count, mass uint64
	for l, n := range row {
		if n != 0 {
			count += n
			mass += uint64(l) * n
			lengths = append(lengths, uint64(l))
			cumCount = append(cumCount, count)
			cumMass = append(cumMass, mass)
		}
	}
	c.Lengths, c.CumCount, c.CumMass = lengths, cumCount, cumMass
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
