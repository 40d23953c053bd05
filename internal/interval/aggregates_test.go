package interval

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// buildTestDist records a mix of dense and tail buckets, with duplicate
// tail appends left uncompacted, across several flags classes.
func buildTestDist(t *testing.T) *Distribution {
	t.Helper()
	d := NewDistribution(64, 1<<20)
	d.Add(1, 0, 10)
	d.Add(1, Leading, 2)
	d.Add(3, Dirty, 4)
	d.Add(2, 0, 7)
	d.Add(denseLimit-1, Trailing|Dirty, 1)
	// Tail buckets, appended out of order and with a duplicate key.
	d.Add(denseLimit+100, 0, 3)
	d.Add(denseLimit+5, NLPrefetchable, 2)
	d.Add(denseLimit+100, 0, 5)
	d.Add(1<<19, Untouched, 6)
	return d
}

// TestEachOrderDeterministic is the regression net for the documented
// Each order: lexicographic ascending (length, flags), with strictly
// ascending lengths inside every flags class, stable across repeated
// walks, compaction, and adds after a walk.
func TestEachOrderDeterministic(t *testing.T) {
	type bucket struct {
		length uint64
		flags  Flags
		count  uint64
	}
	walk := func(d *Distribution) []bucket {
		var out []bucket
		d.Each(func(length uint64, flags Flags, count uint64) bool {
			out = append(out, bucket{length, flags, count})
			return true
		})
		return out
	}
	check := func(name string, got []bucket) {
		t.Helper()
		for i := 1; i < len(got); i++ {
			p, q := got[i-1], got[i]
			if q.length < p.length || (q.length == p.length && q.flags <= p.flags) {
				t.Fatalf("%s: bucket %d (len=%d flags=%v) not after (len=%d flags=%v)",
					name, i, q.length, q.flags, p.length, p.flags)
			}
		}
	}

	d := buildTestDist(t)
	first := walk(d) // compacts the tail
	check("first walk", first)
	second := walk(d)
	if len(first) != len(second) {
		t.Fatalf("walk changed length after compaction: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("walk %d differs after compaction: %+v vs %+v", i, first[i], second[i])
		}
	}

	// Adds after a walk must not perturb the order: add to existing dense
	// rows and append to the compacted tail, then re-check.
	d.Add(2, 0, 1)
	d.Add(denseLimit+100, 0, 1)
	d.Add(denseLimit+1, Trailing, 9)
	check("after Add", walk(d))

	// Randomized: any insertion order yields a sorted walk.
	rng := rand.New(rand.NewSource(7))
	rd := NewDistribution(16, 1<<30)
	for i := 0; i < 2000; i++ {
		length := uint64(rng.Intn(3*denseLimit)) + 1
		rd.Add(length, Flags(rng.Intn(NumFlags)), uint64(rng.Intn(4))+1)
	}
	check("randomized", walk(rd))
}

func TestAggregatesMatchDistribution(t *testing.T) {
	d := buildTestDist(t)
	a := NewAggregates(d)
	if a == nil {
		t.Fatal("nil aggregates from non-nil distribution")
	}
	if want := walkClasses(d); !reflect.DeepEqual(a.Classes(), want) {
		t.Fatalf("classes differ from a walk of the distribution:\n got %+v\nwant %+v", a.Classes(), want)
	}
	if a.NumIntervals() != d.NumIntervals() || a.Mass() != d.Mass() {
		t.Fatalf("totals mismatch: aggregates (%d, %d), distribution (%d, %d)",
			a.NumIntervals(), a.Mass(), d.NumIntervals(), d.Mass())
	}
	if a.NumFrames() != d.NumFrames || a.TotalCycles() != d.TotalCycles {
		t.Fatal("header mismatch")
	}

	// Classes ascend by flags, each with strictly ascending lengths and
	// non-decreasing cumulative arrays.
	var sumCount, sumMass uint64
	for i, c := range a.Classes() {
		if i > 0 && c.Flags <= a.Classes()[i-1].Flags {
			t.Fatalf("class %d flags %v not after %v", i, c.Flags, a.Classes()[i-1].Flags)
		}
		if len(c.Lengths) != len(c.CumCount) || len(c.Lengths) != len(c.CumMass) {
			t.Fatalf("class %v ragged arrays", c.Flags)
		}
		for j := 1; j < len(c.Lengths); j++ {
			if c.Lengths[j] <= c.Lengths[j-1] {
				t.Fatalf("class %v lengths not strictly ascending at %d", c.Flags, j)
			}
			if c.CumCount[j] < c.CumCount[j-1] || c.CumMass[j] < c.CumMass[j-1] {
				t.Fatalf("class %v cumulative arrays decrease at %d", c.Flags, j)
			}
		}
		sumCount += c.TotalCount()
		sumMass += c.TotalMass()
	}
	if sumCount != d.NumIntervals() || sumMass != d.Mass() {
		t.Fatalf("class totals (%d, %d) do not recover distribution totals (%d, %d)",
			sumCount, sumMass, d.NumIntervals(), d.Mass())
	}

	// Prefix queries agree with brute-force filters at and around every
	// recorded length and at the extremes.
	for _, c := range a.Classes() {
		cuts := []float64{0, 0.5, 1e18}
		for _, l := range c.Lengths {
			cuts = append(cuts, float64(l)-0.5, float64(l), float64(l)+0.5)
		}
		for _, cut := range cuts {
			wantCount := uint64(0)
			wantMass := uint64(0)
			flags := c.Flags
			d.Each(func(length uint64, f Flags, count uint64) bool {
				if f == flags && float64(length) <= cut {
					wantCount += count
					wantMass += length * count
				}
				return true
			})
			gotCount, gotMass := c.Prefix(cut)
			if gotCount != wantCount || gotMass != wantMass {
				t.Fatalf("class %v Prefix(%g) = (%d, %d), want (%d, %d)",
					flags, cut, gotCount, gotMass, wantCount, wantMass)
			}
		}
	}
}

// walkClasses is the reference aggregate builder: it collects d's Each
// walk per flags class, appending as it goes, then orders the classes by
// flags value.
func walkClasses(d *Distribution) []FlagsClass {
	var classes []FlagsClass
	d.Each(func(length uint64, flags Flags, count uint64) bool {
		i := slices.IndexFunc(classes, func(c FlagsClass) bool { return c.Flags == flags })
		if i < 0 {
			i = len(classes)
			classes = append(classes, FlagsClass{Flags: flags})
		}
		classes[i].add(length, count)
		return true
	})
	slices.SortFunc(classes, func(a, b FlagsClass) int { return int(a.Flags) - int(b.Flags) })
	return classes
}

// TestNewAggregatesSizesExactly is the dynamic twin of NewAggregates'
// counting pass: it allocates the Aggregates, the class list and three
// slices per class, each at exactly its final length, and builds the same
// classes as a walk of the distribution.
func TestNewAggregatesSizesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, d := range []*Distribution{buildTestDist(t), randomDist(rng, 5000), randomDist(rng, 40)} {
		a := NewAggregates(d)
		if want := walkClasses(d); len(want) > 0 && !reflect.DeepEqual(a.Classes(), want) || len(a.Classes()) != len(want) {
			t.Fatalf("classes differ from a walk of the distribution")
		}
		if cap(a.Classes()) != len(a.Classes()) {
			t.Errorf("class list: cap %d, len %d", cap(a.Classes()), len(a.Classes()))
		}
		for _, c := range a.Classes() {
			for name, s := range map[string][]uint64{"Lengths": c.Lengths, "CumCount": c.CumCount, "CumMass": c.CumMass} {
				if cap(s) != len(s) {
					t.Errorf("class %v %s: cap %d, len %d", c.Flags, name, cap(s), len(s))
				}
			}
		}
		want := float64(2 + 3*len(a.Classes()))
		if n := testing.AllocsPerRun(10, func() { NewAggregates(d) }); n != want {
			t.Errorf("%d classes: %v allocs, want %v (the aggregates, the class list, 3 per class)", len(a.Classes()), n, want)
		}
	}
}

// BenchmarkNewAggregates builds the aggregates of a distribution shaped
// like a cache's: 200,000 buckets with log-uniform lengths up to 2^24, so
// the short dense rows fill up and the long tail stays sparse, over 16
// flags classes.
func BenchmarkNewAggregates(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := NewDistribution(1024, 1<<30)
	for i := 0; i < 200000; i++ {
		length := uint64(math.Exp(rng.Float64()*math.Log(1<<24))) + 1
		d.Add(length, Flags(rng.Intn(16)), uint64(rng.Intn(4))+1)
	}
	NewAggregates(d) // compact the tail outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggSink = NewAggregates(d)
	}
}

// aggSink keeps BenchmarkNewAggregates' builds from being optimized away.
var aggSink *Aggregates

func TestAggregatesNil(t *testing.T) {
	if a := NewAggregates(nil); a != nil {
		t.Fatal("NewAggregates(nil) must be nil")
	}
	empty := NewAggregates(NewDistribution(0, 0))
	if empty == nil || empty.NumIntervals() != 0 || empty.Mass() != 0 || len(empty.Classes()) != 0 {
		t.Fatal("empty distribution must yield empty aggregates")
	}
}

// fuzzClass decodes a FlagsClass: each byte b adds a length b+1 past the
// previous one, shifted left by b-200 bits for b >= 200 so the class
// reaches past 2^53, where distinct lengths share a float64. Counts
// cycle through 1..3.
func fuzzClass(data []byte) FlagsClass {
	var c FlagsClass
	var length, count, mass uint64
	for i, b := range data {
		delta := uint64(b) + 1
		if b >= 200 {
			delta <<= b - 200
		}
		if length+delta < length || length+delta > 1<<58 {
			break
		}
		length += delta
		n := uint64(i%3 + 1)
		count += n
		mass += length * n
		c.Lengths = append(c.Lengths, length)
		c.CumCount = append(c.CumCount, count)
		c.CumMass = append(c.CumMass, mass)
	}
	return c
}

// fuzzCut decodes one two-byte cut: a NaN, an infinity, a recorded length
// or its half-integer neighbours, or a plain value.
func fuzzCut(c *FlagsClass, kind, v byte) float64 {
	at := float64(v)
	if n := len(c.Lengths); n > 0 {
		at = float64(c.Lengths[int(v)%n])
	}
	switch kind % 8 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return at
	case 4:
		return at - 0.5
	case 5:
		return at + 0.5
	case 6:
		return -float64(v)
	default:
		return float64(v) * 1e15
	}
}

// FuzzPrefixFrom checks the hinted prefix search against a linear scan for
// any class (empty included) and any cut sequence (ascending, descending,
// repeated, NaN, ±Inf): chained through each answer as the next hint, from
// a fixed arbitrary hint, and hint-less through Prefix.
func FuzzPrefixFrom(f *testing.F) {
	f.Add([]byte{}, []byte{0, 0, 1, 0, 3, 7}, 0)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{3, 0, 3, 1, 3, 2, 3, 5, 3, 7}, -1)
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, []byte{3, 7, 4, 5, 5, 3, 3, 1, 3, 0}, 8)
	f.Add([]byte{1, 1, 1, 1, 255, 1, 1, 1}, []byte{3, 4, 3, 4, 4, 4, 0, 0, 3, 2, 1, 0, 2, 0}, 3)
	f.Add([]byte{250, 250, 0, 0, 250, 240}, []byte{5, 0, 5, 1, 5, 2, 4, 3, 4, 4, 5, 5}, 100)
	f.Add([]byte{7, 3}, []byte{6, 9, 7, 1, 0, 0, 7, 3}, -7)
	f.Fuzz(func(t *testing.T, lengths, cuts []byte, hint int) {
		c := fuzzClass(lengths)
		chained := -1
		for ; len(cuts) >= 2; cuts = cuts[2:] {
			cut := fuzzCut(&c, cuts[0], cuts[1])
			want := len(c.Lengths)
			for i, l := range c.Lengths {
				if float64(l) > cut {
					want = i
					break
				}
			}
			var wantCount, wantMass uint64
			if want > 0 {
				wantCount, wantMass = c.CumCount[want-1], c.CumMass[want-1]
			}
			count, mass, next := c.PrefixFrom(cut, chained)
			if count != wantCount || mass != wantMass || next != want {
				t.Fatalf("PrefixFrom(%g, hint %d) = (%d, %d, %d), want (%d, %d, %d)", cut, chained, count, mass, next, wantCount, wantMass, want)
			}
			chained = next
			if count, mass, next := c.PrefixFrom(cut, hint); count != wantCount || mass != wantMass || next != want {
				t.Fatalf("PrefixFrom(%g, hint %d) = (%d, %d, %d), want (%d, %d, %d)", cut, hint, count, mass, next, wantCount, wantMass, want)
			}
			if count, mass := c.Prefix(cut); count != wantCount || mass != wantMass {
				t.Fatalf("Prefix(%g) = (%d, %d), want (%d, %d)", cut, count, mass, wantCount, wantMass)
			}
		}
	})
}
