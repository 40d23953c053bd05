package interval_test

import (
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/sim/trace"
)

// A frame's timeline decomposes exactly into leading gap, interior
// intervals, and trailing gap — the conservation invariant behind all
// energy accounting.
func ExampleCollector() {
	col, err := interval.NewCollector(trace.L1D, 1, nil)
	if err != nil {
		panic(err)
	}
	for _, cycle := range []uint64{100, 250, 900} {
		// A load hit on frame 0: cycle, line, PC, frame, cache, kind, miss.
		if err := col.AddCols(cycle, 0, 0, 0, trace.L1D, trace.Load, false); err != nil {
			panic(err)
		}
	}
	dist, err := col.Finish(1000)
	if err != nil {
		panic(err)
	}
	dist.Each(func(length uint64, flags interval.Flags, count uint64) bool {
		fmt.Printf("%4d cycles x%d (%s)\n", length, count, flags)
		return true
	})
	fmt.Printf("mass %d = frames x cycles %d\n", dist.Mass(), 1*1000)
	// Each iterates ascending by (length, flags), so both 100-cycle edge
	// gaps come first.
	// Output:
	//  100 cycles x1 (leading)
	//  100 cycles x1 (trailing)
	//  150 cycles x1 (interior)
	//  650 cycles x1 (interior)
	// mass 1000 = frames x cycles 1000
}

// Distributions answer aggregate questions directly.
func ExampleDistribution_MassWhere() {
	d := interval.NewDistribution(4, 10000)
	d.Add(500, 0, 10)
	d.Add(5000, interval.NLPrefetchable, 2)
	long := d.MassWhere(func(l uint64, f interval.Flags) bool { return l > 1057 })
	fmt.Printf("sleepable mass: %d of %d\n", long, d.Mass())
	// Output:
	// sleepable mass: 10000 of 15000
}
