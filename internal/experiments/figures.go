package experiments

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/prefetch"
	"leakbound/internal/report"
)

// Figure7Thetas is the sweep of minimum sleep interval lengths the paper
// plots: from the 70nm drowsy-sleep inflection point up to 10000 cycles.
func Figure7Thetas() []uint64 {
	return []uint64{1057, 1200, 1500, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
}

// Figure7Context compares the pure sleep method against the hybrid
// (sleep+drowsy) method while sweeping the minimum interval length that
// may be put to sleep. Results are averaged across all benchmarks, as in
// the paper. iCache selects Figure 7(a) (instruction cache) vs 7(b) (data
// cache). The (theta x {sleep, hybrid}) policy list evaluates on every
// benchmark through evaluateSide; the per-theta averages are then reduced
// in benchmark order.
func Figure7Context(ctx context.Context, s *Suite, iCache bool) (sleep, hybrid *report.Series, err error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	thetas := Figure7Thetas()
	pols := make([]leakage.Policy, 0, 2*len(thetas))
	for _, theta := range thetas {
		pols = append(pols, leakage.OPTSleep{Theta: theta}, leakage.OPTHybrid{SleepTheta: theta})
	}
	res, err := s.evaluateSide(ctx, "fig7", all, iCache, power.Default(), pols)
	if err != nil {
		return nil, nil, err
	}
	sleep = &report.Series{Name: "Sleep"}
	hybrid = &report.Series{Name: "Sleep+Drowsy"}
	for ti, theta := range thetas {
		var sSum, hSum float64
		for bi := range all {
			sSum += res[bi][2*ti].Savings
			hSum += res[bi][2*ti+1].Savings
		}
		n := float64(len(all))
		sleep.Add(float64(theta), sSum/n)
		hybrid.Add(float64(theta), hSum/n)
	}
	return sleep, hybrid, nil
}

// Figure8Policies returns the six schemes of Figure 8 in bar order.
func Figure8Policies() []leakage.Policy {
	return []leakage.Policy{
		leakage.OPTDrowsy{},
		leakage.SleepDecay{Theta: 10000},
		leakage.OPTSleep{Theta: 10000},
		leakage.OPTHybrid{},
		leakage.PrefetchA(),
		leakage.PrefetchB(),
	}
}

// Figure8Row holds one benchmark's (or the average's) savings per scheme.
type Figure8Row struct {
	Benchmark string
	// Savings is keyed by policy name, in Figure8Policies order.
	Savings []float64
}

// Figure8Context evaluates the six schemes on every benchmark plus the
// average, for one cache side, at 70nm, through evaluateSide; the average
// row is reduced in benchmark order.
func Figure8Context(ctx context.Context, s *Suite, iCache bool) ([]Figure8Row, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	policies := Figure8Policies()
	res, err := s.evaluateSide(ctx, "fig8", all, iCache, power.Default(), policies)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure8Row, 0, len(all)+1)
	avg := make([]float64, len(policies))
	for bi, bd := range all {
		row := Figure8Row{Benchmark: bd.Name, Savings: make([]float64, len(policies))}
		for i, ev := range res[bi] {
			row.Savings[i] = ev.Savings
			avg[i] += ev.Savings / float64(len(all))
		}
		rows = append(rows, row)
	}
	rows = append(rows, Figure8Row{Benchmark: "average", Savings: avg})
	return rows, nil
}

// Figure8TableContext renders Figure 8 as a table (benchmarks x schemes).
func Figure8TableContext(ctx context.Context, s *Suite, iCache bool) (*report.Table, error) {
	rows, err := Figure8Context(ctx, s, iCache)
	if err != nil {
		return nil, err
	}
	side := "(a) Instruction Cache"
	if !iCache {
		side = "(b) Data Cache"
	}
	headers := []string{"benchmark"}
	for _, p := range Figure8Policies() {
		headers = append(headers, p.Name())
	}
	t := report.NewTable("Figure 8"+side+": leakage power savings per scheme", headers...)
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for _, v := range r.Savings {
			cells = append(cells, report.Pct(v))
		}
		t.MustAddRow(cells...)
	}
	return t, nil
}

// Figure9Context computes the prefetchability breakdown of cache access
// intervals by length regime, aggregated over all benchmarks, for one
// cache side. The paper reports next-line prefetchability of 23% for the
// instruction cache, and 16.3% next-line + 5.1% stride for the data cache.
func Figure9Context(ctx context.Context, s *Suite, iCache bool) (prefetch.Prefetchability, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return prefetch.Prefetchability{}, err
	}
	a, b, err := power.Default().InflectionPoints()
	if err != nil {
		return prefetch.Prefetchability{}, err
	}
	// The counts are integers, so summing each benchmark's breakdown is
	// exactly the breakdown of the merged distribution.
	out := prefetch.Prefetchability{A: a, B: b}
	for _, bd := range all {
		_, agg := bd.Side(iCache)
		out.Add(prefetch.Analyze(agg, a, b))
	}
	return out, nil
}

// Figure9TableContext renders the Figure 9 breakdown.
func Figure9TableContext(ctx context.Context, s *Suite, iCache bool) (*report.Table, error) {
	p, err := Figure9Context(ctx, s, iCache)
	if err != nil {
		return nil, err
	}
	side := "(a) Instruction Cache"
	if !iCache {
		side = "(b) Data Cache"
	}
	t := report.NewTable("Figure 9"+side+": prefetchability of intervals",
		"regime", "share of intervals", "P-NL", "P-stride")
	total := float64(p.Total())
	if total == 0 {
		return nil, fmt.Errorf("experiments: no interior intervals for Figure 9")
	}
	t.MustAddRow(fmt.Sprintf("(0, %.0f]", p.A),
		report.Pct(float64(p.ShortCount)/total), "-", "-")
	t.MustAddRow(fmt.Sprintf("(%.0f, %.0f]", p.A, p.B),
		report.Pct(float64(p.MidCount)/total),
		report.Pct(float64(p.MidNL)/total),
		report.Pct(float64(p.MidStride)/total))
	t.MustAddRow(fmt.Sprintf("(%.0f, +inf)", p.B),
		report.Pct(float64(p.LongCount)/total),
		report.Pct(float64(p.LongNL)/total),
		report.Pct(float64(p.LongStride)/total))
	t.MustAddRow("total prefetchable",
		report.Pct(p.PrefetchableShare()),
		report.Pct(p.NLShare()),
		report.Pct(p.StrideShare()))
	return t, nil
}

// Figure10Lengths returns log-spaced interval lengths spanning the three
// regimes at 70nm, for sampling the energy envelope.
func Figure10Lengths() []float64 {
	var out []float64
	for l := 1.0; l <= 1e5; l *= 1.5 {
		out = append(out, math.Round(l))
	}
	return out
}

// Figure10 samples the three per-mode energy curves and their lower
// envelope (the E(Ii, Tj) function of the appendix) at 70nm.
func Figure10() ([]leakage.EnvelopePoint, error) {
	tech := power.Default()
	m := leakage.NewModel(tech)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m.EnvelopeSeries(Figure10Lengths()), nil
}

// Figure10Table renders Figure 10 as a table of energies per mode; +Inf
// cells (mode does not fit) render as "-".
func Figure10Table() (*report.Table, error) {
	pts, err := Figure10()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 10: energy per interval length and operating mode (70nm, model units)",
		"interval", "active", "drowsy", "sleep", "envelope", "best mode")
	fm := func(v float64) string {
		if math.IsInf(v, 1) {
			return "-"
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, p := range pts {
		t.MustAddRow(
			fmt.Sprintf("%.0f", p.Length),
			fm(p.Active), fm(p.Drowsy), fm(p.Sleep), fm(p.Minimum),
			p.Best.String(),
		)
	}
	return t, nil
}

// GapToOptimalContext reports the paper's Section 5.2 headline: how close
// Prefetch-B comes to OPT-Hybrid, for one cache side (paper: within 5.3%
// for the instruction cache, 6.7% for the data cache).
func GapToOptimalContext(ctx context.Context, s *Suite, iCache bool) (prefetchB, optHybrid, gap float64, err error) {
	rows, err := Figure8Context(ctx, s, iCache)
	if err != nil {
		return 0, 0, 0, err
	}
	avg := rows[len(rows)-1]
	policies := Figure8Policies()
	for i, p := range policies {
		switch p.Name() {
		case "OPT-Hybrid":
			optHybrid = avg.Savings[i]
		case "Prefetch-B":
			prefetchB = avg.Savings[i]
		}
	}
	return prefetchB, optHybrid, optHybrid - prefetchB, nil
}

// MassProfile summarizes a distribution's interval mass by the regimes the
// study cares about; used in EXPERIMENTS.md and diagnostics. One walk
// sums each regime's mass exactly, bucket by bucket.
func MassProfile(d *interval.Distribution) map[string]float64 {
	total := float64(d.Mass())
	if total == 0 {
		return nil
	}
	// Regime i holds the lengths in (ends[i-1], ends[i]], the last one
	// every length past ends[3].
	ends := [...]float64{6, 1057, 10000, 103084}
	var mass [len(ends) + 1]uint64
	d.Each(func(l uint64, _ interval.Flags, count uint64) bool {
		i := 0
		for i < len(ends) && float64(l) > ends[i] {
			i++
		}
		mass[i] += l * count
		return true
	})
	share := func(i int) float64 { return float64(mass[i]) / total }
	return map[string]float64{
		"(0,6]":       share(0),
		"(6,1057]":    share(1),
		"(1057,10K]":  share(2),
		"(10K,103K]":  share(3),
		"(103K,+inf)": share(4),
	}
}

// IntervalStatsTable renders a distribution's interior interval lengths,
// the diagnostic view cmd/leakagesim prints alongside policy savings: one
// row per non-empty log2 bucket with its count and mass shares, then the
// count, mean and maximum length.
func IntervalStatsTable(title string, d *interval.Distribution) (*report.Table, error) {
	// Bucket i holds lengths in (2^(i-1), 2^i]; the last holds every
	// length above 2^topLog2.
	const topLog2 = 24
	var counts, masses [topLog2 + 2]uint64
	var n, longest uint64
	var mass float64
	d.Each(func(length uint64, flags interval.Flags, count uint64) bool {
		if flags.Interior() {
			i := min(bits.Len64(length-1), topLog2+1)
			counts[i] += count
			masses[i] += length * count
			n += count
			mass += float64(length) * float64(count)
			longest = max(longest, length)
		}
		return true
	})
	if n == 0 {
		return nil, fmt.Errorf("experiments: no interior intervals")
	}
	t := report.NewTable(title, "interval length", "count share", "mass share")
	lower := 0.0
	for i, c := range counts {
		upper := math.Ldexp(1, i)
		if c > 0 {
			label := fmt.Sprintf("(%.0f, %.0f]", lower, upper)
			if i == topLog2+1 {
				label = fmt.Sprintf("(%.0f, +inf)", lower)
			}
			t.MustAddRow(label,
				report.Pct(float64(c)/float64(n)),
				report.Pct(float64(masses[i])/mass))
		}
		lower = upper
	}
	t.MustAddRow("summary",
		fmt.Sprintf("n=%d", n),
		fmt.Sprintf("mean %.0f, max %.0f", mass/float64(n), float64(longest)))
	return t, nil
}
