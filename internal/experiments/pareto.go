package experiments

// The Pareto view of the policy space: leakage savings alone rank the
// oracles, but the sleep-based schemes buy their savings with induced
// misses the drowsy schemes never pay. ParetoFrontierContext evaluates
// both axes — benchmark-averaged normalized leakage (energy / always-on
// baseline) and induced re-fetches per 1000 intervals — for any set of
// policy specs and marks the non-dominated frontier, which by
// construction contains the paper's OPT-Hybrid bound.

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
)

// ParetoPoint is one policy's position in the (normalized leakage,
// induced miss rate) plane, benchmark-averaged on one cache side.
type ParetoPoint struct {
	// Spec is the canonical spec string that built the policy.
	Spec string `json:"spec"`
	// Policy is the built policy's display name.
	Policy string `json:"policy"`
	// NormalizedLeakage is the benchmark-averaged ratio of the policy's
	// leakage energy to the always-active baseline (lower is better;
	// 1 - savings).
	NormalizedLeakage float64 `json:"normalized_leakage"`
	// InducedMissRate is the benchmark-averaged induced re-fetches per
	// 1000 intervals (lower is better; 0 for the drowsy-only schemes).
	InducedMissRate float64 `json:"induced_miss_rate"`
	// Frontier marks the point as non-dominated: no other evaluated point
	// is at least as good on both axes and strictly better on one.
	Frontier bool `json:"frontier"`
}

// DefaultParetoSpecs returns one representative per technique family with
// its default parameters, in registration order — the default population
// for the frontier query. Registered refinements (Registration.Refines)
// are skipped: a refinement dominates its base scheme by construction
// (strictly more oracle information), so including both would collapse
// the technique-level frontier into a family-internal comparison. Callers
// wanting the refinements on the plot pass them explicitly.
func DefaultParetoSpecs() []leakage.PolicySpec {
	regs := leakage.DefaultRegistry().Schemes()
	specs := make([]leakage.PolicySpec, 0, len(regs))
	for _, reg := range regs {
		if reg.Refines != "" {
			continue
		}
		specs = append(specs, leakage.PolicySpec{Scheme: reg.Name})
	}
	return specs
}

// ParetoFrontierContext evaluates every spec on every benchmark's chosen
// cache at tech and returns the points in spec order with the
// non-dominated set marked. A nil/empty specs slice evaluates
// DefaultParetoSpecs.
//
// The population runs on the aggregate kernel: the spec list is compiled
// once (leakage.Compile), then one parallel task per benchmark answers it
// — both axes from one fold, leakage.Compiled.EvaluateMisses — over the
// suite's cached prefix summaries, so the population costs
// O(specs x classes) prefix searches per benchmark instead of a full
// distribution walk per (spec, benchmark) cell. The reductions and the
// dominance pass are sequential and deterministic (spec-major,
// benchmark-inner, matching the pre-aggregate loop order).
func (s *Suite) ParetoFrontierContext(ctx context.Context, iCache bool, tech power.Technology, specs []leakage.PolicySpec) ([]ParetoPoint, error) {
	if len(specs) == 0 {
		specs = DefaultParetoSpecs()
	}
	policies := make([]leakage.Policy, len(specs))
	for i, spec := range specs {
		pol, err := BuildPolicy(spec, tech)
		if err != nil {
			return nil, err
		}
		policies[i] = pol
	}
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	aggs := sideAggregates(all, iCache)
	cp, err := leakage.Compile(tech, policies, aggs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: pareto: %w", err)
	}
	evsAll := make([][]leakage.Evaluation, len(all))
	rates := make([][]float64, len(all))
	err = s.forEach(ctx, len(all), func(bi int) error {
		evs, ms, err := cp.EvaluateMisses(aggs[bi])
		if err != nil {
			return fmt.Errorf("experiments: pareto %s: %w", all[bi].Name, err)
		}
		evsAll[bi], rates[bi] = evs, ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]ParetoPoint, len(specs))
	for i, pol := range policies {
		var leak, miss float64
		for bi := range all {
			leak += evsAll[bi][i].Energy / evsAll[bi][i].Baseline
			miss += rates[bi][i]
		}
		n := float64(len(all))
		points[i] = ParetoPoint{
			Spec:              specs[i].String(),
			Policy:            pol.Name(),
			NormalizedLeakage: leak / n,
			InducedMissRate:   miss / n,
		}
	}
	markFrontier(points)
	return points, nil
}

// markFrontier sets Frontier on every non-dominated point: p is dominated
// iff some q is at least as good on both axes and strictly better on one.
// Coincident points are mutually non-dominating, so duplicates of a
// frontier point stay on the frontier.
func markFrontier(points []ParetoPoint) {
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			p, q := points[i], points[j]
			if q.NormalizedLeakage <= p.NormalizedLeakage && q.InducedMissRate <= p.InducedMissRate &&
				(q.NormalizedLeakage < p.NormalizedLeakage || q.InducedMissRate < p.InducedMissRate) {
				dominated = true
				break
			}
		}
		points[i].Frontier = !dominated
	}
}

// ParetoTableContext renders the frontier query as a table: one row per
// spec with both axes and the frontier mark.
func (s *Suite) ParetoTableContext(ctx context.Context, iCache bool, tech power.Technology, specs []leakage.PolicySpec) (*report.Table, error) {
	points, err := s.ParetoFrontierContext(ctx, iCache, tech, specs)
	if err != nil {
		return nil, err
	}
	side := "(a) Instruction Cache"
	if !iCache {
		side = "(b) Data Cache"
	}
	t := report.NewTable("Pareto "+side+": normalized leakage vs induced misses per scheme",
		"spec", "policy", "normalized leakage", "misses/1K intervals", "frontier")
	for _, p := range points {
		mark := ""
		if p.Frontier {
			mark = "*"
		}
		t.MustAddRow(p.Spec, p.Policy,
			fmt.Sprintf("%.4f", p.NormalizedLeakage),
			fmt.Sprintf("%.3f", p.InducedMissRate), mark)
	}
	return t, nil
}

// TechniqueFamiliesTableContext evaluates the related-work technique
// families against the paper's bound, Figure-8 style: cache coloring at
// three granularities (Mittal, arXiv:1309.5647), way memoization at each
// benchmark's measured prefetch-engine accuracy (Ishihara & Fallah,
// arXiv:0710.4703), and the realizable Prefetch-B, all as savings
// relative to OPT-Hybrid's oracle ceiling.
func (s *Suite) TechniqueFamiliesTableContext(ctx context.Context, iCache bool, tech power.Technology) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	fixed := []leakage.Policy{
		leakage.OPTHybrid{},
		leakage.Coloring{Colors: 2, Frames: leakage.DefaultColoringFrames},
		leakage.Coloring{Colors: 8, Frames: leakage.DefaultColoringFrames},
		leakage.Coloring{Colors: 64, Frames: leakage.DefaultColoringFrames},
		leakage.PrefetchB(),
	}
	// One list for every row: the fixed set, then a WayMemo at each
	// benchmark's measured engine accuracy, of which row bi reads its own.
	pols := slices.Clone(fixed)
	for _, bd := range all {
		eng := bd.IEngine
		if !iCache {
			eng = bd.DEngine
		}
		pols = append(pols, leakage.WayMemo{Accuracy: eng.Accuracy()})
	}
	res, err := s.evaluateSide(ctx, "families", all, iCache, tech, pols)
	if err != nil {
		return nil, err
	}
	side := "(a) Instruction Cache"
	if !iCache {
		side = "(b) Data Cache"
	}
	headers := []string{"benchmark"}
	for _, p := range fixed {
		headers = append(headers, p.Name())
	}
	headers = append(headers, "WayMemo(engine)")
	t := report.NewTable("Technique families "+side+": savings vs the OPT-Hybrid bound", headers...)
	avg := make([]float64, len(fixed)+1)
	for bi, bd := range all {
		row := []string{bd.Name}
		for i := range avg {
			ev := res[bi][i]
			if i == len(fixed) {
				ev = res[bi][len(fixed)+bi]
			}
			row = append(row, report.Pct(ev.Savings))
			avg[i] += ev.Savings / float64(len(all))
		}
		t.MustAddRow(row...)
	}
	avgRow := []string{"average"}
	for _, v := range avg {
		avgRow = append(avgRow, report.Pct(v))
	}
	t.MustAddRow(avgRow...)
	return t, nil
}

// PolicyTable renders the default registry as a table — the single source
// of truth behind README's policy list and the "policies" CLI item: one
// row per scheme with its parameters (positional first) and doc line.
func PolicyTable() *report.Table {
	t := report.NewTable("Registered policy schemes", "scheme", "parameters", "description")
	for _, reg := range leakage.DefaultRegistry().Schemes() {
		params := make([]string, 0, len(reg.Params))
		for _, p := range reg.Params {
			name := p.Name
			if p.Name == reg.Positional {
				name += " (positional)"
			}
			params = append(params, fmt.Sprintf("%s %s, default %s", name, p.Kind, p.Default))
		}
		cell := "-"
		if len(params) > 0 {
			cell = strings.Join(params, "; ")
		}
		t.MustAddRow(reg.Name, cell, reg.Doc)
	}
	return t
}
