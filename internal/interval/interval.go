// Package interval implements the cache access interval analysis at the
// heart of the limit study (Section 3.1 of the paper): breaking each cache
// frame's lifetime into the stretches between consecutive accesses, and
// summarizing those stretches into a compact distribution that the policy
// engine (internal/leakage) evaluates.
//
// An interval is attributed to a physical cache frame — leakage is per
// line of SRAM, regardless of which memory block occupies it — and a
// frame's timeline decomposes exactly as:
//
//	leading gap (cycle 0 .. first access)
//	interior intervals (access .. next access)
//	trailing gap (last access .. end of simulation)
//
// so the summed lengths over a frame always equal the simulated cycle
// count, which is the package's central conservation invariant.
//
// A Collector takes the access stream one event at a time as columns
// (AddCols, its one entry point) and asks an optional Classifier to flag
// each interior interval it closes.
package interval

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"leakbound/internal/sim/trace"
	"leakbound/internal/telemetry"
)

// Flags annotate an interval with properties the policies care about.
type Flags uint8

const (
	// NLPrefetchable marks an interior interval whose closing access was
	// predictable by next-line prefetching (Section 5.1: an access to the
	// preceding cache line occurred within the interval).
	NLPrefetchable Flags = 1 << iota
	// StridePrefetchable marks an interval predictable by per-PC
	// stride prefetching (Farkas-style: same stride seen at least twice).
	StridePrefetchable
	// Leading marks the gap from cycle 0 to a frame's first access. Its
	// re-fetch is the compulsory fill the baseline pays too, so sleep
	// policies close it without the induced-miss energy.
	Leading
	// Trailing marks the gap from a frame's last access to the end of the
	// simulation; nothing re-fetches after it.
	Trailing
	// Dirty marks an interval during which the frame held modified data:
	// gating the line (sleep) first requires a write-back, which costs
	// dynamic energy. State-preserving drowsy mode does not. The paper
	// does not model this cost; leakbound tracks it as an extension
	// (see the write-back ablation in EXPERIMENTS.md).
	Dirty
	// DeadEnd marks an interval closed by a miss: the block that rested
	// in the frame during the gap was never referenced again (it was
	// evicted by the closing fill), so the gap was a dead period in the
	// cache-decay sense (Section 3.1's live/dead distinction). The paper
	// argues dead periods add little beyond interval length for an
	// optimal policy; the live/dead experiment verifies that claim.
	DeadEnd
)

// Untouched marks a frame that was never accessed: one full-length gap.
const Untouched = Leading | Trailing

// Prefetchable reports whether either prefetch flag is set.
func (f Flags) Prefetchable() bool {
	return f&(NLPrefetchable|StridePrefetchable) != 0
}

// Interior reports whether the interval is a true access-to-access
// interval (neither leading nor trailing).
func (f Flags) Interior() bool { return f&(Leading|Trailing) == 0 }

// Edge returns f's edge kind: f with every flag but Leading and Trailing
// cleared, so 0 (interior), Leading, Trailing or Untouched.
func (f Flags) Edge() Flags { return f & (Leading | Trailing) }

// String implements fmt.Stringer.
func (f Flags) String() string {
	if f == 0 {
		return "interior"
	}
	s := ""
	add := func(name string) {
		if s != "" {
			s += "|"
		}
		s += name
	}
	if f&NLPrefetchable != 0 {
		add("nl")
	}
	if f&StridePrefetchable != 0 {
		add("stride")
	}
	if f&Leading != 0 {
		add("leading")
	}
	if f&Trailing != 0 {
		add("trailing")
	}
	if f&Dirty != 0 {
		add("dirty")
	}
	if f&DeadEnd != 0 {
		add("dead")
	}
	return s
}

// MarshalJSON implements json.Marshaler, encoding the same readable form
// String produces ("interior", "nl|leading", ...) so API payloads carry
// names rather than a bitmask clients would have to decode.
func (f Flags) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, f.String()), nil
}

// Key identifies one (length, flags) bucket in a distribution.
type Key struct {
	Length uint64
	Flags  Flags
}

// Distribution is a multiset of intervals, compactly stored as counts per
// (length, flags). Short lengths — the overwhelming majority — live in
// dense per-flag rows, allocated lazily the first time a flag combination
// appears (a real run uses a dozen of the 64 combinations, so the old
// always-allocated 8192x64 table wasted both the 4MB zeroing and the
// cache locality); the long tail lives in an append log that compact
// sorts, merges and packs into a few bytes per bucket.
type Distribution struct {
	NumFrames   uint32
	TotalCycles uint64

	rows    [NumFlags][]uint64 // rows[flags][length] for length < denseLimit; nil until used
	maxLen  [NumFlags]uint32   // highest populated length per row, bounds iteration
	present []uint8            // flags with non-nil rows, ascending

	// The long buckets (length >= denseLimit) live in two forms. tail is
	// an append log of (length<<6|flags, count) pairs: a hash table would
	// cost a cache-missing probe per Add plus rehash churn; appending is a
	// sequential store. packed is the compacted form compact folds the log
	// into: every bucket sorted by key, equal keys merged, stored as
	// uvarint (key delta, count) pairs, so a bucket of a long tail costs a
	// few bytes instead of sixteen for as long as the distribution lives.
	// compact orders the log with an in-place radix sort on the keys (no
	// comparisons, no scratch buffer) and merges equal keys.
	tail   []tailBucket
	packed []byte
	// packed's buckets under each flags value, and its distinct lengths
	// under each edge kind (Flags.Edge), counted by compact.
	tailSize, tailEdgeSize [NumFlags]int

	numIntervals uint64 // total recorded intervals (all kinds)
	mass         uint64 // sum of length*count
}

const (
	denseLimit = 8192
	// NumFlags is the number of distinct Flags values:
	// nl|stride|leading|trailing|dirty|deadend fit in 6 bits.
	NumFlags = 64
	// maxLength is the longest interval a tail key (length<<6|flags) holds.
	maxLength = 1<<58 - 1
)

// tailBucket is one long bucket: key = length<<6 | flags, so numeric key
// order IS (length, flags) order.
type tailBucket struct{ key, count uint64 }

// compact folds the tail log into the packed tail: it decodes the packed
// buckets onto the log, sorts the log by key, merges equal keys and
// counts the merged buckets (tailSize, tailEdgeSize), then packs the
// result at exact size and drops the log, whose growth slack would
// otherwise stay allocated for as long as the distribution lives.
// Idempotent, and free when nothing was appended since the last call.
func (d *Distribution) compact() {
	if len(d.tail) == 0 {
		return
	}
	log := d.tail
	var buf [64]tailBucket
	for r := (tailReader{buf: d.packed}); ; {
		n := r.read(buf[:])
		if n == 0 {
			break
		}
		log = append(log, buf[:n]...)
	}
	// The first digit is the byte holding the largest key's top bit, so a
	// suite whose keys stay below 2^32 sorts in at most four passes.
	var union uint64
	for _, b := range log {
		union |= b.key
	}
	shift := uint(0)
	if union > 0 {
		shift = uint(bits.Len64(union)-1) / 8 * 8
	}
	radixSort(log, shift)
	d.tailSize, d.tailEdgeSize = [NumFlags]int{}, [NumFlags]int{}
	// In key order a length's flags of one edge kind come up together.
	var edgeLast [NumFlags]uint64 // 1 + each kind's last length
	out := log[:0]
	for _, b := range log {
		if n := len(out); n > 0 && out[n-1].key == b.key {
			out[n-1].count += b.count
			continue
		}
		out = append(out, b)
		length, f := b.key>>6, Flags(b.key&(NumFlags-1))
		d.tailSize[f]++
		if k := f.Edge(); edgeLast[k] != length+1 {
			edgeLast[k] = length + 1
			d.tailEdgeSize[k]++
		}
	}
	d.packed = packTail(out)
	d.tail = nil
}

// packTail encodes buckets, ascending by key, as uvarint (key delta,
// count) pairs in a slice of exactly their size.
func packTail(buckets []tailBucket) []byte {
	size, prev := 0, uint64(0)
	for _, b := range buckets {
		size += uvarintLen(b.key-prev) + uvarintLen(b.count)
		prev = b.key
	}
	packed := make([]byte, 0, size)
	prev = 0
	for _, b := range buckets {
		packed = binary.AppendUvarint(packed, b.key-prev)
		packed = binary.AppendUvarint(packed, b.count)
		prev = b.key
	}
	return packed
}

// uvarintLen returns the bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// tailReader walks a packed tail in ascending key order. It only reads
// the bytes, so any number of readers may walk one tail at once.
type tailReader struct {
	buf []byte
	key uint64
}

// read decodes the next buckets into buf, as many as fit, and returns
// how many it decoded: 0 past the last bucket.
func (r *tailReader) read(buf []tailBucket) int {
	b, key, i := r.buf, r.key, 0
	for ; i < len(buf) && len(b) > 0; i++ {
		delta, n := binary.Uvarint(b)
		count, m := binary.Uvarint(b[n:])
		b = b[n+m:]
		key += delta
		buf[i] = tailBucket{key, count}
	}
	r.buf, r.key = b, key
	return i
}

// insertionCutoff is the bucket size below which radixSort finishes with
// an insertion sort: a 256-way digit pass costs more than a few dozen
// compares.
const insertionCutoff = 32

// radixSort sorts b by key in place: an MSD ("American flag") radix sort
// on 8-bit digits, the first at bit shift. Each pass counts the digits,
// permutes every element into its digit's range, and recurses into each
// range on the next digit down; a pass whose keys all share the digit
// skips the permutation. Sorting in place keeps compact from needing a
// tail-sized scratch buffer. Equal keys may land in any order; compact
// merges them by summing counts, so the result does not depend on it.
func radixSort(b []tailBucket, shift uint) {
	if len(b) < insertionCutoff {
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && b[j].key < b[j-1].key; j-- {
				b[j], b[j-1] = b[j-1], b[j]
			}
		}
		return
	}
	var count [256]int
	for _, x := range b {
		count[x.key>>shift&0xff]++
	}
	if count[b[0].key>>shift&0xff] < len(b) {
		permute(b, shift, &count)
	}
	if shift == 0 {
		return
	}
	lo := 0
	for _, n := range count {
		if n > 1 {
			radixSort(b[lo:lo+n], shift-8)
		}
		lo += n
	}
}

// permute moves every element of b into the range of its digit at shift,
// given the digit counts. Digit by digit, it sweeps the unfilled part of
// the digit's range, swapping every element there into the next free slot
// of its own digit's range, until the range is full. Each element a sweep
// examines is placed for good, so the sweeps examine len(b) elements in
// all. A sweep handles four elements per step, so four independent cache
// misses are in flight where a swap chain would wait on one at a time.
// The four destinations cannot overlap the four sources: a foreign
// digit's slot lies outside the swept range, and the swept digit's next
// free slot never passes the element being placed.
func permute(b []tailBucket, shift uint, count *[256]int) {
	var next, end [256]int
	pos := 0
	for dg, n := range count {
		next[dg] = pos
		pos += n
		end[dg] = pos
	}
	for dg := range next {
		for next[dg] < end[dg] {
			i, e := next[dg], end[dg]
			for ; i+4 <= e; i += 4 {
				d0, d1 := b[i].key>>shift&0xff, b[i+1].key>>shift&0xff
				d2, d3 := b[i+2].key>>shift&0xff, b[i+3].key>>shift&0xff
				t0 := next[d0]
				next[d0]++
				t1 := next[d1]
				next[d1]++
				t2 := next[d2]
				next[d2]++
				t3 := next[d3]
				next[d3]++
				b[i], b[t0] = b[t0], b[i]
				b[i+1], b[t1] = b[t1], b[i+1]
				b[i+2], b[t2] = b[t2], b[i+2]
				b[i+3], b[t3] = b[t3], b[i+3]
			}
			for ; i < e; i++ {
				d := b[i].key >> shift & 0xff
				t := next[d]
				next[d]++
				b[i], b[t] = b[t], b[i]
			}
		}
	}
}

// NewDistribution creates an empty distribution for a cache with the given
// frame count and time horizon.
func NewDistribution(numFrames uint32, totalCycles uint64) *Distribution {
	return &Distribution{
		NumFrames:   numFrames,
		TotalCycles: totalCycles,
	}
}

// row returns the dense row for flags, sized to index need, growing it
// geometrically. Rows start small and double as longer intervals appear:
// most flag combinations only ever see short intervals, and keeping their
// rows at a few cache lines (instead of an eager 64KB each) is what keeps
// the per-event row[length] increment resident in cache.
func (d *Distribution) row(flags Flags, need uint64) []uint64 {
	r := d.rows[flags]
	if r == nil {
		i := sort.Search(len(d.present), func(i int) bool { return d.present[i] >= uint8(flags) })
		d.present = append(d.present, 0)
		copy(d.present[i+1:], d.present[i:])
		d.present[i] = uint8(flags)
	}
	size := uint64(64)
	for size <= need {
		size *= 2
	}
	if size > denseLimit {
		size = denseLimit
	}
	grown := make([]uint64, size)
	copy(grown, r)
	d.rows[flags] = grown
	return grown
}

// Add records count intervals of the given length and flags. length must
// not exceed 2^58-1, the longest a tail key holds.
func (d *Distribution) Add(length uint64, flags Flags, count uint64) {
	if count == 0 || length == 0 {
		return
	}
	d.numIntervals += count
	d.mass += length * count
	if length < denseLimit {
		row := d.rows[flags]
		if uint64(len(row)) <= length {
			row = d.row(flags, length)
		}
		row[length] += count
		if uint32(length) > d.maxLen[flags] {
			d.maxLen[flags] = uint32(length)
		}
		return
	}
	d.tail = append(d.tail, tailBucket{length<<6 | uint64(flags), count})
}

// NumIntervals returns the number of recorded intervals.
func (d *Distribution) NumIntervals() uint64 { return d.numIntervals }

// Mass returns the summed interval lengths (frame-cycles). When the
// distribution was built by a Collector, Mass == NumFrames * TotalCycles.
func (d *Distribution) Mass() uint64 { return d.mass }

// Each calls fn for every (length, flags, count) bucket in deterministic
// order: ascending length, ties broken by ascending flags value — i.e.
// lexicographic (length, flags). Within one flags class the lengths are
// therefore strictly ascending, which is the invariant the prefix-sum
// aggregate builder (NewAggregates) and the bit-identical reduction
// discipline both depend on. The order is independent of insertion order
// and of compact (sorting by the length<<6|flags key IS the
// (length, flags) order; dense lengths are all below the tail's
// denseLimit floor, so the dense walk strictly precedes the tail walk).
// TestEachOrderDeterministic pins this. Iteration stops if fn returns
// false.
//
// The first Each after new tail appends folds the log into the packed
// tail (compact), so it must not race with other walks. A compacted
// distribution's walk only reads it: Collector.Finish and
// ReadDistribution return compacted distributions, which concurrent walks
// may share until the next Add.
func (d *Distribution) Each(fn func(length uint64, flags Flags, count uint64) bool) {
	var max uint64
	for _, f := range d.present {
		if l := uint64(d.maxLen[f]); l > max {
			max = l
		}
	}
	for length := uint64(1); length <= max; length++ {
		for _, f := range d.present {
			if uint32(length) > d.maxLen[f] {
				continue
			}
			if c := d.rows[f][length]; c > 0 {
				if !fn(length, Flags(f), c) {
					return
				}
			}
		}
	}
	d.compact()
	var buf [64]tailBucket
	for r := (tailReader{buf: d.packed}); ; {
		n := r.read(buf[:])
		if n == 0 {
			return
		}
		for _, b := range buf[:n] {
			if !fn(b.key>>6, Flags(b.key&(NumFlags-1)), b.count) {
				return
			}
		}
	}
}

// Count returns the number of intervals matching the predicate.
func (d *Distribution) Count(pred func(length uint64, flags Flags) bool) uint64 {
	var n uint64
	d.Each(func(length uint64, flags Flags, count uint64) bool {
		if pred(length, flags) {
			n += count
		}
		return true
	})
	return n
}

// MassWhere returns the summed lengths of intervals matching the predicate.
func (d *Distribution) MassWhere(pred func(length uint64, flags Flags) bool) uint64 {
	var m uint64
	d.Each(func(length uint64, flags Flags, count uint64) bool {
		if pred(length, flags) {
			m += length * count
		}
		return true
	})
	return m
}

// Classifier flags interval closings for prefetchability. The
// implementation lives in internal/prefetch; the zero classifier (nil)
// flags nothing.
type Classifier interface {
	// ClassifyObserve is called for every access in stream order. When
	// closing is true the access closes a non-empty interval that opened
	// at cycle start, and the returned flags must be computed against the
	// predictor state as of before this access; either way the call then
	// updates that state with the access.
	ClassifyObserve(cycle, lineAddr, pc uint64, kind trace.Kind, start uint64, closing bool) Flags
}

// Collector builds a Distribution from a timed access stream for one cache.
type Collector struct {
	cache      trace.CacheID
	numFrames  uint32
	classifier Classifier

	lastAccess []uint64 // per frame; access cycle + 1 (0 = never accessed)
	dirty      []bool   // per frame; true if the resident block is modified
	dist       *Distribution
	finished   bool
	lastCycle  uint64
	events     uint64 // accepted events, flushed to telemetry at Finish
}

// NewCollector creates a collector for the given cache with numFrames
// physical lines. classifier may be nil.
func NewCollector(cacheID trace.CacheID, numFrames uint32, classifier Classifier) (*Collector, error) {
	if !cacheID.Valid() {
		return nil, fmt.Errorf("interval: invalid cache id %d", cacheID)
	}
	if numFrames == 0 {
		return nil, errors.New("interval: zero frames")
	}
	return &Collector{
		cache:      cacheID,
		numFrames:  numFrames,
		classifier: classifier,
		lastAccess: make([]uint64, numFrames),
		dirty:      make([]bool, numFrames),
		dist:       NewDistribution(numFrames, 0),
	}, nil
}

// AddCols consumes one event, given as its stream.Batch columns. Events
// for other caches are ignored, so a single simulator sink can fan out to
// several collectors. Events must arrive in non-decreasing cycle order.
//
//lint:hotpath entry
func (c *Collector) AddCols(cycle, lineAddr, pc uint64, frame uint32, cacheID trace.CacheID, kind trace.Kind, miss bool) error {
	if cacheID != c.cache {
		return nil
	}
	if c.finished {
		return fmt.Errorf("%w: AddCols after Finish", ErrFinished)
	}
	if frame >= c.numFrames {
		return fmt.Errorf("%w: frame %d (have %d)", ErrFrameRange, frame, c.numFrames)
	}
	if cycle < c.lastCycle {
		return fmt.Errorf("%w: cycle %d before %d", ErrOutOfOrder, cycle, c.lastCycle)
	}
	c.lastCycle = cycle
	c.events++

	prev := c.lastAccess[frame]
	if prev == 0 {
		// First access: the leading gap runs from cycle 0.
		if cycle > 0 {
			c.dist.Add(cycle, Leading, 1)
		}
		if c.classifier != nil {
			c.classifier.ClassifyObserve(cycle, lineAddr, pc, kind, 0, false)
		}
	} else {
		start := prev - 1
		length := cycle - start
		var flags Flags
		if c.classifier != nil {
			flags = c.classifier.ClassifyObserve(cycle, lineAddr, pc, kind, start, length > 0) &
				(NLPrefetchable | StridePrefetchable)
		}
		if length > 0 {
			if c.dirty[frame] {
				flags |= Dirty
			}
			if miss {
				// The closing access replaced the resident block: the gap
				// was the old block's dead period.
				flags |= DeadEnd
			}
			c.dist.Add(length, flags, 1)
		}
	}
	c.lastAccess[frame] = cycle + 1
	// Track modified state: a store dirties the resident block; a miss
	// fill replaces it (the eviction write-back, if any, is charged to
	// the closing interval's Dirty flag above), so dirtiness restarts
	// from this access's own kind.
	switch {
	case miss:
		c.dirty[frame] = kind == trace.Store
	case kind == trace.Store:
		c.dirty[frame] = true
	}
	return nil
}

// Finish closes all trailing gaps at the simulation horizon and returns the
// distribution. totalCycles must be at least the cycle of the last event.
func (c *Collector) Finish(totalCycles uint64) (*Distribution, error) {
	if c.finished {
		return nil, fmt.Errorf("%w: Finish called twice", ErrFinished)
	}
	if totalCycles < c.lastCycle {
		return nil, fmt.Errorf("%w: horizon %d, last event %d", ErrHorizon, totalCycles, c.lastCycle)
	}
	c.finished = true
	c.dist.TotalCycles = totalCycles
	var untouched uint64
	for frame, prev := range c.lastAccess {
		if prev == 0 {
			untouched++
			continue
		}
		last := prev - 1
		if totalCycles > last {
			flags := Trailing
			if c.dirty[frame] {
				flags |= Dirty
			}
			c.dist.Add(totalCycles-last, flags, 1)
		}
	}
	if untouched > 0 && totalCycles > 0 {
		c.dist.Add(totalCycles, Untouched, untouched)
	}
	// One flush per collector lifetime keeps telemetry off the per-event
	// path (millions of AddCols calls per benchmark).
	sc := telemetry.Default().Scope("interval")
	sc.Counter("collectors_finished").Add(1)
	sc.Counter("events").Add(c.events)
	sc.Counter("intervals_closed").Add(c.dist.numIntervals)
	sc.Counter("frames_untouched").Add(untouched)
	// Compact on the finishing goroutine so the returned distribution can
	// be walked from several goroutines at once (see Each).
	c.dist.compact()
	return c.dist, nil
}
