package interval

import (
	"math/rand"
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
		rd.Add(length, Flags(rng.Intn(flagSpace)), uint64(rng.Intn(4))+1)
	}
	check("randomized", walk(rd))
}

func TestAggregatesMatchDistribution(t *testing.T) {
	d := buildTestDist(t)
	a := NewAggregates(d)
	if a == nil {
		t.Fatal("nil aggregates from non-nil distribution")
	}
	if a.Source() != d {
		t.Fatal("Source must return the built-from distribution")
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

func TestAggregatesNil(t *testing.T) {
	if a := NewAggregates(nil); a != nil {
		t.Fatal("NewAggregates(nil) must be nil")
	}
	empty := NewAggregates(NewDistribution(0, 0))
	if empty == nil || empty.NumIntervals() != 0 || empty.Mass() != 0 || len(empty.Classes()) != 0 {
		t.Fatal("empty distribution must yield empty aggregates")
	}
}
