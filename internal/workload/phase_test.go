package workload

import (
	"sort"
	"testing"
)

// hotRegions splits w's instruction stream into full windows of the given
// length (a trailing partial window is dropped) and returns, for each
// window, the set of its top most-executed 64-byte code regions (PC >> 6).
// Ties in execution count break toward the lower region.
func hotRegions(w Workload, window, top int) []map[uint64]bool {
	var sets []map[uint64]bool
	counts := map[uint64]int{}
	n := 0
	w.Emit(func(in Instr) bool {
		counts[in.PC>>6]++
		if n++; n < window {
			return true
		}
		regions := make([]uint64, 0, len(counts))
		for r := range counts {
			regions = append(regions, r)
		}
		sort.Slice(regions, func(i, j int) bool {
			if ci, cj := counts[regions[i]], counts[regions[j]]; ci != cj {
				return ci > cj
			}
			return regions[i] < regions[j]
		})
		set := map[uint64]bool{}
		for _, r := range regions[:min(top, len(regions))] {
			set[r] = true
		}
		sets = append(sets, set)
		counts, n = map[uint64]int{}, 0
		return true
	})
	return sets
}

// disjointPairs counts the pairs of windows whose hot-region sets share no
// region.
func disjointPairs(sets []map[uint64]bool) int {
	pairs := 0
	for i := range sets {
	next:
		for j := i + 1; j < len(sets); j++ {
			for r := range sets[i] {
				if sets[j][r] {
					continue next
				}
			}
			pairs++
		}
	}
	return pairs
}

// TestPhaseStructure checks that the phased generators really change phase:
// gcc and mesa each have two 50,000-instruction windows whose 8 hottest code
// regions do not overlap at all. gzip, a single-loop program, has no such
// pair, so the check tells a phased generator from an unphased one.
func TestPhaseStructure(t *testing.T) {
	const window, top = 50000, 8
	for _, name := range []string{"gcc", "mesa"} {
		sets := hotRegions(MustNew(name, 0.05), window, top)
		if got := disjointPairs(sets); got == 0 {
			t.Errorf("%s: no two of its %d windows have disjoint hot code regions", name, len(sets))
		}
	}
	if got := disjointPairs(hotRegions(MustNew("gzip", 0.05), window, top)); got != 0 {
		t.Errorf("gzip: %d window pairs with disjoint hot code regions, want 0", got)
	}
}
