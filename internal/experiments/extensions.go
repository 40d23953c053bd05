package experiments

// Extension experiments beyond the paper's evaluation, exercising the
// library's generality (the "future work" directions Section 6 gestures
// at): the L2 cache, extra baseline schemes from the related work, the
// dirty-line write-back cost, and temperature sensitivity.
//
// Every table evaluates through the aggregate kernels (evaluateSide, or
// leakage.EvaluateMany in one task per aggregate), never a bucket walk:
// the L1 tables over the Suite's cached IAgg/DAgg summaries, the L2 study
// over an aggregate it builds per benchmark and drops when done.

import (
	"context"
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
)

// ExtendedSchemesTableContext compares the related-work baselines
// (periodic drowsy, feedback-tuned decay, AMC) against the paper's oracle
// bounds, on both caches, at 70nm. This is the comparison Section 2's
// survey implies but the paper never plots.
func ExtendedSchemesTableContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	tech := power.Default()
	labels := []string{
		"Drowsy(2000) periodic", "Drowsy(4000) periodic",
		"Adaptive decay (feedback)", "AMC (tags alive)",
		"OPT-Drowsy (bound)", "OPT-Hybrid (bound)",
	}
	fixed := []leakage.Policy{
		leakage.PeriodicDrowsy{Window: 2000}, leakage.PeriodicDrowsy{Window: 4000},
		leakage.OPTDrowsy{}, leakage.OPTHybrid{},
	}
	// One task per (benchmark, side) aggregate, the side innermost: even
	// tasks are the I-cache, odd the D-cache. vals[k] holds the savings of
	// every row, in labels order.
	vals := make([][6]float64, 2*len(all))
	err = s.forEach(ctx, len(vals), func(k int) error {
		bd := all[k/2]
		_, agg := bd.Side(k%2 == 0)
		evs, err := leakage.EvaluateMany(tech, agg, fixed)
		if err != nil {
			return fmt.Errorf("experiments: extended schemes on %s: %w", bd.Name, err)
		}
		adaptive, err := leakage.EvaluateAdaptiveDecay(tech, agg)
		if err != nil {
			return fmt.Errorf("experiments: adaptive decay on %s: %w", bd.Name, err)
		}
		amc, err := leakage.EvaluateAMC(tech, agg, 0.06)
		if err != nil {
			return fmt.Errorf("experiments: AMC on %s: %w", bd.Name, err)
		}
		vals[k] = [6]float64{evs[0].Savings, evs[1].Savings, adaptive.Savings, amc.Savings, evs[2].Savings, evs[3].Savings}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: related-work schemes vs the oracle bounds (70nm, benchmark average)",
		"scheme", "I-cache", "D-cache")
	for ri, label := range labels {
		var iSum, dSum float64
		for bi := range all {
			iSum += vals[2*bi][ri]
			dSum += vals[2*bi+1][ri]
		}
		n := float64(len(all))
		t.MustAddRow(label, report.Pct(iSum/n), report.Pct(dSum/n))
	}
	return t, nil
}

// L2StudyContext evaluates the oracle policies on the unified 2MB L2 — a
// cache 32x larger than the L1s whose frames are touched only on L1
// misses, so nearly all of its (much larger) leakage is recoverable. The
// paper restricts itself to the L1s; this is the natural next target its
// conclusion implies.
//
// The Suite keeps no L2 aggregate: one task per benchmark builds it from
// the L2 distribution, folds the three oracles in one EvaluateMany, reads
// the frames touched off the Untouched classes' mass, and drops it.
func L2StudyContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	tech := power.Default()
	oracles := []leakage.Policy{leakage.OPTDrowsy{}, leakage.OPTSleep{Theta: 10000}, leakage.OPTHybrid{}}
	// vals[bi] holds the frames touched, then each oracle's savings.
	vals := make([][4]float64, len(all))
	err = s.forEach(ctx, len(all), func(bi int) error {
		agg := interval.NewAggregates(all[bi].L2Cache)
		evs, err := leakage.EvaluateMany(tech, agg, oracles)
		if err != nil {
			return fmt.Errorf("experiments: L2 study on %s: %w", all[bi].Name, err)
		}
		var untouched uint64
		for i := range agg.Classes() {
			if cls := &agg.Classes()[i]; cls.Flags&interval.Untouched == interval.Untouched {
				untouched += cls.TotalMass()
			}
		}
		vals[bi] = [4]float64{1 - float64(untouched)/float64(agg.Mass()), evs[0].Savings, evs[1].Savings, evs[2].Savings}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: L2 leakage savings (2MB unified, 70nm)",
		"benchmark", "frames touched", "OPT-Drowsy", "OPT-Sleep(10K)", "OPT-Hybrid")
	var sums [3]float64
	for bi, bd := range all {
		cells := []string{bd.Name}
		for j, v := range vals[bi] {
			cells = append(cells, report.Pct(v))
			if j > 0 {
				sums[j-1] += v
			}
		}
		t.MustAddRow(cells...)
	}
	n := float64(len(all))
	t.MustAddRow("average", "-", report.Pct(sums[0]/n), report.Pct(sums[1]/n), report.Pct(sums[2]/n))
	return t, nil
}

// WritebackAblationContext quantifies the cost the paper leaves
// unmodelled: a dirty line must be written back before it can be gated.
// The write-back energy is swept from zero (the paper's implicit
// assumption) to the full induced-miss energy, and OPT-Hybrid's D-cache
// savings re-evaluated.
func WritebackAblationContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	ratios := []float64{0, 0.25, 0.5, 1.0}
	techs := make([]power.Technology, len(ratios))
	for i, ratio := range ratios {
		techs[i] = power.Default()
		techs[i].WBEnergy = ratio * techs[i].CD
	}
	// One task per benchmark's D-cache aggregate, evaluating OPT-Hybrid at
	// every write-back cost.
	hybrid := []leakage.Policy{leakage.OPTHybrid{}}
	vals := make([][]float64, len(all))
	err = s.forEach(ctx, len(all), func(bi int) error {
		vals[bi] = make([]float64, len(techs))
		for i, tech := range techs {
			evs, err := leakage.EvaluateMany(tech, all[bi].DAgg, hybrid)
			if err != nil {
				return fmt.Errorf("experiments: write-back ablation on %s: %w", all[bi].Name, err)
			}
			vals[bi][i] = evs[0].Savings
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: write-back cost ablation (OPT-Hybrid, D-cache, 70nm)",
		"WB energy / CD", "average savings", "delta vs free")
	var free float64
	for i, ratio := range ratios {
		var sum float64
		for bi := range all {
			sum += vals[bi][i]
		}
		avg := sum / float64(len(all))
		if ratio == 0 {
			free = avg
		}
		t.MustAddRow(fmt.Sprintf("%.2f", ratio), report.Pct(avg),
			fmt.Sprintf("%+.2f pts", (avg-free)*100))
	}
	return t, nil
}

// TemperatureSweepContext shows how the drowsy-sleep inflection point and
// the oracle savings move with junction temperature: leakage scales
// exponentially with T while the induced-miss energy does not, so hot
// silicon should sleep more aggressively. The paper's generalized model
// exists exactly to answer questions like this. Each temperature point
// is its own technology, evaluated inline through leakage.EvaluateMany
// over the benchmark's cached summary.
func TemperatureSweepContext(ctx context.Context, s *Suite, benchmark string) (*report.Table, error) {
	bd, err := s.DataContext(ctx, benchmark)
	if err != nil {
		return nil, err
	}
	base := power.Default()
	t := report.NewTable(
		fmt.Sprintf("Extension: temperature sensitivity (%s I-cache, 70nm)", benchmark),
		"temp (K)", "P_active scale", "inflection b", "OPT-Hybrid savings")
	for _, temp := range []float64{300, 330, 353, 380, 400} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tech, err := power.TemperatureScaledTechnology(base, temp)
		if err != nil {
			return nil, err
		}
		_, b, err := tech.InflectionPoints()
		if err != nil {
			return nil, err
		}
		evs, err := leakage.EvaluateMany(tech, bd.IAgg, []leakage.Policy{leakage.OPTHybrid{}})
		if err != nil {
			return nil, err
		}
		t.MustAddRow(
			fmt.Sprintf("%.0f", temp),
			fmt.Sprintf("%.2fx", tech.PActive/base.PActive),
			fmt.Sprintf("%.0f", b),
			report.Pct(evs[0].Savings),
		)
	}
	return t, nil
}

// PrefetcherQualityTableContext reports the hardware prefetch engines'
// coverage and accuracy per benchmark — the implementable check of Section
// 5's premise (citing Sair, Sherwood & Calder) that next-line and stride
// prefetching capture most cache misses.
func PrefetcherQualityTableContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: hardware prefetcher quality (next-line I / next-line+stride D)",
		"benchmark", "I coverage", "I accuracy", "D coverage", "D accuracy")
	var iCov, iAcc, dCov, dAcc float64
	for _, bd := range all {
		t.MustAddRow(bd.Name,
			report.Pct(bd.IEngine.Coverage()), report.Pct(bd.IEngine.Accuracy()),
			report.Pct(bd.DEngine.Coverage()), report.Pct(bd.DEngine.Accuracy()))
		iCov += bd.IEngine.Coverage()
		iAcc += bd.IEngine.Accuracy()
		dCov += bd.DEngine.Coverage()
		dAcc += bd.DEngine.Accuracy()
	}
	n := float64(len(all))
	t.MustAddRow("average", report.Pct(iCov/n), report.Pct(iAcc/n),
		report.Pct(dCov/n), report.Pct(dAcc/n))
	return t, nil
}

// LiveDeadStudyContext verifies the paper's Section 3.1 claim: "dead
// periods did not contribute a large amount of leakage savings in the
// optimal case, because any long interval would be turned off whether live
// or dead. Thus the only additional savings that are achieved from
// considering dead intervals are from short dead intervals, of which there
// are very few."
//
// The length-only OPT-Hybrid treats every interior interval identically; a
// dead-aware oracle additionally knows that a dead-ending gap's block is
// never referenced again, so sleeping it incurs no induced-miss energy and
// pays off at much shorter lengths. The delta between the two is exactly
// the savings attributable to live/dead knowledge — per the paper, it
// should be small.
func LiveDeadStudyContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	res, err := s.evaluateSide(ctx, "live-dead", all, false, power.Default(),
		[]leakage.Policy{leakage.OPTHybrid{}, leakage.DeadAwareHybrid{}})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: live vs dead intervals (D-cache, 70nm) — Section 3.1's claim",
		"benchmark", "dead mass share", "OPT-Hybrid (length only)", "dead-aware hybrid", "delta")
	for bi, bd := range all {
		var deadMass uint64
		for i := range bd.DAgg.Classes() {
			if cls := &bd.DAgg.Classes()[i]; cls.Flags&interval.DeadEnd != 0 {
				deadMass += cls.TotalMass()
			}
		}
		share := float64(deadMass) / float64(bd.DAgg.Mass())
		lengthOnly, deadAware := res[bi][0].Savings, res[bi][1].Savings
		t.MustAddRow(bd.Name,
			report.Pct(share),
			report.Pct(lengthOnly),
			report.Pct(deadAware),
			fmt.Sprintf("%.2f pts", (deadAware-lengthOnly)*100),
		)
	}
	return t, nil
}

// BreakdownTableContext explains Figure 8's OPT-Hybrid bars: where the
// residual energy goes, per benchmark and cache, in the terms the
// calibration notes use (active mass, drowsy retention, transitions,
// induced misses, residual sleep leakage).
func BreakdownTableContext(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	tech := power.Default()
	// One cell per (benchmark, side): even cells are the I-cache, odd the
	// D-cache.
	brs := make([]leakage.Breakdown, len(all)*2)
	err = s.forEach(ctx, len(brs), func(k int) error {
		dist, _ := all[k/2].Side(k%2 == 0)
		br, err := leakage.HybridBreakdown(tech, dist)
		brs[k] = br
		return err
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: OPT-Hybrid residual energy breakdown (70nm, % of baseline)",
		"benchmark", "cache", "savings", "active", "drowsy", "transitions", "induced miss", "sleep leak")
	for k, br := range brs {
		t.MustAddRow(all[k/2].Name, []string{"I", "D"}[k%2],
			report.Pct(br.Savings), report.Pct(br.ActiveShare),
			report.Pct(br.DrowsyShare), report.Pct(br.TransitionShare),
			report.Pct(br.InducedMissShare), report.Pct(br.SleepShare))
	}
	return t, nil
}
