// Package simpoint implements a small-scale version of the SimPoint
// methodology the paper uses to pick representative simulation windows
// (Sherwood et al., ASPLOS 2002): programs are sliced into fixed-size
// instruction windows, each window is summarized by its basic-block vector
// (BBV — how often each static code region executed), vectors are projected
// and clustered with k-means, and the window closest to each cluster
// centroid becomes that phase's simulation point, weighted by cluster size.
//
// The synthetic workloads here are small enough to simulate in full, so the
// experiment harness runs complete traces; this package exists because the
// methodology is part of the paper's toolchain, and the phase weights it
// produces are used by tests to confirm the generators really do have
// phase behaviour.
package simpoint

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"leakbound/internal/workload"
)

// BBVCollector slices an instruction stream into windows of WindowSize
// instructions and builds one basic-block vector per window. Basic blocks
// are approximated by code regions: PC >> RegionShift.
type BBVCollector struct {
	WindowSize  int
	RegionShift uint

	current map[uint32]float64
	filled  int
	windows []map[uint32]float64
}

// NewBBVCollector creates a collector; windowSize must be positive.
// regionShift of 6 groups PCs by 64-byte line, a reasonable basic-block
// proxy for fixed-width ISAs.
func NewBBVCollector(windowSize int, regionShift uint) (*BBVCollector, error) {
	if windowSize <= 0 {
		return nil, fmt.Errorf("simpoint: non-positive window size %d", windowSize)
	}
	if regionShift > 20 {
		return nil, fmt.Errorf("simpoint: implausible region shift %d", regionShift)
	}
	return &BBVCollector{
		WindowSize:  windowSize,
		RegionShift: regionShift,
		current:     make(map[uint32]float64),
	}, nil
}

// Add consumes one instruction.
func (c *BBVCollector) Add(in workload.Instr) {
	c.current[uint32(in.PC>>c.RegionShift)]++
	c.filled++
	if c.filled >= c.WindowSize {
		c.windows = append(c.windows, c.current)
		c.current = make(map[uint32]float64)
		c.filled = 0
	}
}

// Windows returns the completed windows' normalized BBVs (each vector sums
// to 1). A final partial window is included if it covers at least half the
// window size.
func (c *BBVCollector) Windows() []map[uint32]float64 {
	out := make([]map[uint32]float64, 0, len(c.windows)+1)
	out = append(out, c.windows...)
	if c.filled >= c.WindowSize/2 && len(c.current) > 0 {
		out = append(out, c.current)
	}
	norm := make([]map[uint32]float64, len(out))
	for i, w := range out {
		var total float64
		for _, v := range w {
			total += v
		}
		n := make(map[uint32]float64, len(w))
		for k, v := range w {
			n[k] = v / total
		}
		norm[i] = n
	}
	return norm
}

// Phase is one discovered program phase.
type Phase struct {
	// Representative is the index of the window chosen as this phase's
	// simulation point.
	Representative int
	// Weight is the fraction of all windows belonging to this phase.
	Weight float64
	// Size is the number of member windows.
	Size int
}

// Result is the output of phase analysis.
type Result struct {
	Phases     []Phase
	Assignment []int // window index -> phase index
}

// vec is a sparse vector in deterministic (key-sorted) form. All distance
// and centroid arithmetic runs over sorted slices so results are exactly
// reproducible — map iteration order must never influence clustering.
type vec struct {
	keys []uint32
	vals []float64
}

// toVec converts a map BBV into sorted form.
func toVec(m map[uint32]float64) vec {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return vec{keys: keys, vals: vals}
}

// dist returns the squared Euclidean distance between two sorted vectors,
// accumulated in key order.
func dist(a, b vec) float64 {
	var d float64
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] == b.keys[j]:
			diff := a.vals[i] - b.vals[j]
			d += diff * diff
			i++
			j++
		case a.keys[i] < b.keys[j]:
			d += a.vals[i] * a.vals[i]
			i++
		default:
			d += b.vals[j] * b.vals[j]
			j++
		}
	}
	for ; i < len(a.keys); i++ {
		d += a.vals[i] * a.vals[i]
	}
	for ; j < len(b.keys); j++ {
		d += b.vals[j] * b.vals[j]
	}
	return d
}

// centroid averages member vectors, again in deterministic key order.
func centroid(members []vec) vec {
	sum := make(map[uint32]float64)
	for _, m := range members {
		for i, k := range m.keys {
			sum[k] += m.vals[i]
		}
	}
	out := toVec(sum)
	n := float64(len(members))
	for i := range out.vals {
		out.vals[i] /= n
	}
	return out
}

// kmeansSeed deterministically picks k initial centroids spread across the
// run (evenly spaced windows), which is stable and good enough for phase
// detection.
func kmeansSeed(windows []vec, k int) []vec {
	cents := make([]vec, k)
	for i := 0; i < k; i++ {
		src := windows[i*len(windows)/k]
		cents[i] = vec{keys: append([]uint32(nil), src.keys...), vals: append([]float64(nil), src.vals...)}
	}
	return cents
}

// Analyze clusters the windows into at most k phases with k-means (at most
// maxIter iterations) and returns the phases sorted by descending weight.
func Analyze(rawWindows []map[uint32]float64, k, maxIter int) (Result, error) {
	if len(rawWindows) == 0 {
		return Result{}, errors.New("simpoint: no windows")
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("simpoint: non-positive k %d", k)
	}
	if maxIter <= 0 {
		return Result{}, fmt.Errorf("simpoint: non-positive maxIter %d", maxIter)
	}
	if k > len(rawWindows) {
		k = len(rawWindows)
	}
	windows := make([]vec, len(rawWindows))
	for i, w := range rawWindows {
		windows[i] = toVec(w)
	}
	cents := kmeansSeed(windows, k)
	assign := make([]int, len(windows))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, w := range windows {
			best, bestD := 0, math.Inf(1)
			for c, cent := range cents {
				if d := dist(w, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids from members.
		groups := make([][]vec, k)
		for i, w := range windows {
			groups[assign[i]] = append(groups[assign[i]], w)
		}
		for c := range cents {
			if len(groups[c]) == 0 {
				continue // empty cluster keeps its centroid
			}
			cents[c] = centroid(groups[c])
		}
	}

	// Build phases: pick the member window closest to each centroid
	// (earliest index wins ties, deterministically).
	type acc struct {
		size int
		rep  int
		repD float64
	}
	accs := make([]acc, k)
	for i := range accs {
		accs[i].repD = math.Inf(1)
		accs[i].rep = -1
	}
	for i, w := range windows {
		c := assign[i]
		accs[c].size++
		if d := dist(w, cents[c]); d < accs[c].repD {
			accs[c].repD = d
			accs[c].rep = i
		}
	}
	var phases []Phase
	remap := make([]int, k)
	for c, a := range accs {
		remap[c] = -1
		if a.size == 0 {
			continue
		}
		remap[c] = len(phases)
		phases = append(phases, Phase{
			Representative: a.rep,
			Weight:         float64(a.size) / float64(len(windows)),
			Size:           a.size,
		})
	}
	// Sort phases by weight (descending), keeping the assignment consistent.
	order := make([]int, len(phases))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return phases[order[i]].Weight > phases[order[j]].Weight })
	sorted := make([]Phase, len(phases))
	inv := make([]int, len(phases))
	for newIdx, oldIdx := range order {
		sorted[newIdx] = phases[oldIdx]
		inv[oldIdx] = newIdx
	}
	finalAssign := make([]int, len(assign))
	for i, c := range assign {
		finalAssign[i] = inv[remap[c]]
	}
	return Result{Phases: sorted, Assignment: finalAssign}, nil
}

// PickSimPointsContext runs the full pipeline over a workload: collect
// BBVs with the given window size, cluster into k phases, and return the
// result. The BBV collection pass polls ctx every few thousand
// instructions and the function returns ctx.Err() once the context is
// done.
func PickSimPointsContext(ctx context.Context, w workload.Workload, windowSize, k int) (Result, error) {
	col, err := NewBBVCollector(windowSize, 6)
	if err != nil {
		return Result{}, err
	}
	var n uint64
	var ctxErr error
	w.Emit(func(in workload.Instr) bool {
		if n&4095 == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return false
			}
		}
		n++
		col.Add(in)
		return true
	})
	if ctxErr != nil {
		return Result{}, ctxErr
	}
	return Analyze(col.Windows(), k, 50)
}
