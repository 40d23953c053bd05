package experiments

// The concurrent evaluation grid. Policy evaluation over a cached
// distribution is pure CPU work with no shared state, so the sweeps behind
// Figure 7, Figure 8 and Table 2 — each a nest of loops over
// (technology x policy x distribution) — fan their cells out over the
// suite's worker pool instead of evaluating them one by one.
//
// Determinism: EvaluateGrid writes each cell's result into the slot the
// caller assigned it (the forEach contract), so scheduling order never
// leaks into the output. Callers reduce the returned slice in the exact
// order the sequential loops used, keeping every floating-point sum
// bit-identical to the pre-grid implementation (TestGridMatchesSequential
// pins this).

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
)

// Cell is one (technology, policy, distribution) evaluation of the grid.
type Cell struct {
	Tech   power.Technology
	Policy leakage.Policy
	// Agg is the distribution's prefix-aggregate summary: the cell
	// evaluates through the closed-form fast path
	// (leakage.EvaluateAggregate), which falls back to the reference walk
	// over Agg.Source() for policies without a declared closed form.
	Agg *interval.Aggregates
	// Label names the cell in errors and telemetry; optional (the index is
	// used when empty).
	Label string
}

// EvaluateGrid evaluates every cell concurrently through forEach and
// returns evaluations indexed exactly like cells: out[i] is the evaluation
// of cells[i] regardless of completion order. Cancelling ctx skips cells
// not yet started and returns ctx.Err(); per-cell metrics land in the
// "grid" telemetry scope either way.
func (s *Suite) EvaluateGrid(ctx context.Context, cells []Cell) ([]leakage.Evaluation, error) {
	out := make([]leakage.Evaluation, len(cells))
	sc := s.metrics.Scope("grid")
	evaluated := sc.Counter("cells_evaluated")
	failed := sc.Counter("cells_failed")
	skipped := sc.Counter("cells_skipped")
	cellNS := sc.Histogram("cell_ns")
	var started atomic.Int64
	err := s.forEach(ctx, len(cells), func(i int) error {
		started.Add(1)
		//lint:ignore detflow wall clock feeds the cell_ns telemetry histogram only, never the evaluated energies
		start := time.Now()
		ev, err := leakage.EvaluateAggregate(cells[i].Tech, cells[i].Agg, cells[i].Policy)
		if err != nil {
			failed.Add(1)
			label := cells[i].Label
			if label == "" {
				label = fmt.Sprintf("#%d", i)
			}
			return fmt.Errorf("experiments: grid cell %s: %w", label, err)
		}
		out[i] = ev
		evaluated.Add(1)
		//lint:ignore detflow wall clock feeds the cell_ns telemetry histogram only, never the evaluated energies
		cellNS.Record(uint64(time.Since(start).Nanoseconds()))
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			skipped.Add(uint64(int64(len(cells)) - started.Load()))
		}
		return nil, err
	}
	return out, nil
}

// table2Policy builds the policy for one Table 2 scheme at one technology
// node (OPT-Sleep's theta is that node's drowsy-sleep inflection point).
func table2Policy(scheme string, tech power.Technology) (leakage.Policy, error) {
	_, b, err := tech.InflectionPoints()
	if err != nil {
		return nil, err
	}
	switch scheme {
	case "OPT-Drowsy":
		return leakage.OPTDrowsy{}, nil
	case "OPT-Sleep":
		return leakage.OPTSleep{Theta: uint64(math.Round(b))}, nil
	case "OPT-Hybrid":
		return leakage.OPTHybrid{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, scheme)
	}
}
