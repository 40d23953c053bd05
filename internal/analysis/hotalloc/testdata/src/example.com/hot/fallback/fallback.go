// Package fallback has two entries that reach one allocating callee over
// two edges of Aggregate: a sanctioned straight-line fallback and an
// unsanctioned one inside the loop. Propagation visits the edges in a
// fixed order, so the reported chain always runs through the first
// (sanctioned) edge and no finding survives — on every run.
package fallback

// Aggregate is an entry: reached from Many's loop it is fully hot.
//
//lint:hotpath entry
func Aggregate(xs []int, fast bool) int {
	if !fast {
		//lint:ignore hotalloc the reference walk is the audited fallback
		return walk(xs)
	}
	total := 0
	for _, x := range xs {
		if x < 0 {
			return walk(xs)
		}
		total += x
	}
	return total
}

// Many calls Aggregate once per batch.
//
//lint:hotpath entry
func Many(batches [][]int) int {
	total := 0
	for _, xs := range batches {
		total += Aggregate(xs, true)
	}
	return total
}

func walk(xs []int) int {
	buf := make([]int, len(xs))
	copy(buf, xs)
	return len(buf)
}
