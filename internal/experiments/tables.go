package experiments

import (
	"context"
	"fmt"
	"math"

	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
)

// Figure1 returns the ITRS projection behind the paper's motivation figure:
// leakage power as a fraction of total power, 1999–2009. The series is
// digitized from the International Technology Roadmap for Semiconductors
// trend the paper plots (leakage crossing ~50% of total power near the end
// of the decade).
func Figure1() *report.Table {
	t := report.NewTable("Figure 1: projected leakage power / total power (ITRS)",
		"year", "leakage share")
	points := []struct {
		year  int
		share float64
	}{
		{1999, 0.06}, {2001, 0.12}, {2003, 0.22},
		{2005, 0.35}, {2007, 0.50}, {2009, 0.64},
	}
	for _, p := range points {
		t.MustAddRow(fmt.Sprintf("%d", p.year), report.Pct(p.share))
	}
	return t
}

// Figure1Series exposes the same data as x/y series for programmatic use.
func Figure1Series() *report.Series {
	s := &report.Series{Name: "leakage/total"}
	points := [][2]float64{{1999, 0.06}, {2001, 0.12}, {2003, 0.22}, {2005, 0.35}, {2007, 0.50}, {2009, 0.64}}
	for _, p := range points {
		s.Add(p[0], p[1])
	}
	return s
}

// Table1 recomputes the Active-Drowsy and Drowsy-Sleep inflection points for
// every built-in technology from the calibrated circuit parameters via the
// generic Equation 3 solver. This is the round-trip consistency check of
// DESIGN.md §4: the published values are calibration *targets*, and this
// table must land on them (70nm: 1057, 100nm: 5088, 130nm: 10328, 180nm:
// 103084, with a = 6 everywhere).
func Table1() (*report.Table, error) {
	t := report.NewTable("Table 1: inflection points (cycles) per technology",
		"technology", "active-drowsy", "drowsy-sleep")
	for _, tech := range power.Technologies() {
		a, b, err := tech.InflectionPoints()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", tech.Name, err)
		}
		t.MustAddRow(tech.Name,
			fmt.Sprintf("%d", int(math.Round(a))),
			fmt.Sprintf("%d", int(math.Round(b))))
	}
	return t, nil
}

// Table2Context reproduces the technology-scaling study: the average (over
// all benchmarks) optimal savings of OPT-Drowsy, OPT-Sleep (theta = the
// inflection point b) and OPT-Hybrid, for both caches, at each process
// node. The rows also carry Vdd and Vth as the paper's table does. Each
// (cache, technology) pair is one evaluateSide query over the three
// schemes; cell averages are reduced in benchmark order.
func Table2Context(ctx context.Context, s *Suite) (*report.Table, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 2: optimal leakage saving percentages with technology scaling",
		"cache", "metric", "70nm", "100nm", "130nm", "180nm")

	techs := power.Technologies()
	vddRow := make([]string, 0, len(techs)+2)
	vthRow := make([]string, 0, len(techs)+2)
	vddRow = append(vddRow, "-", "Vdd (V)")
	vthRow = append(vthRow, "-", "Vth (V)")
	for _, tech := range techs {
		vddRow = append(vddRow, fmt.Sprintf("%.1f", tech.Vdd))
		vthRow = append(vthRow, fmt.Sprintf("%.4f", tech.Vth))
	}
	t.MustAddRow(vddRow...)
	t.MustAddRow(vthRow...)

	for _, side := range []string{"I-Cache", "D-Cache"} {
		// rows[i] is scheme i's row; each technology appends one column.
		rows := make([][]string, len(table2Schemes))
		for i, scheme := range table2Schemes {
			rows[i] = []string{side, scheme + " (%)"}
		}
		for _, tech := range techs {
			pols := make([]leakage.Policy, len(table2Schemes))
			for i, scheme := range table2Schemes {
				if pols[i], err = table2Policy(scheme, tech); err != nil {
					return nil, err
				}
			}
			res, err := s.evaluateSide(ctx, "table2/"+side+"/"+tech.Name, all, side != "D-Cache", tech, pols)
			if err != nil {
				return nil, err
			}
			for i := range pols {
				var sum float64
				for bi := range all {
					sum += res[bi][i].Savings
				}
				rows[i] = append(rows[i], fmt.Sprintf("%.1f", 100*sum/float64(len(all))))
			}
		}
		for _, row := range rows {
			t.MustAddRow(row...)
		}
	}
	return t, nil
}

// table2Schemes lists Table 2's schemes in row order.
var table2Schemes = []string{"OPT-Drowsy", "OPT-Sleep", "OPT-Hybrid"}

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

// Table2ValueContext computes one cell of Table 2 programmatically: the
// average savings for a scheme/cache/technology triple. Scheme is one of
// "OPT-Drowsy", "OPT-Sleep", "OPT-Hybrid"; iCache selects the cache side.
// Unknown schemes report ErrUnknownScheme. One policy per benchmark is a
// few microseconds of work, so it evaluates inline, in benchmark order.
func Table2ValueContext(ctx context.Context, s *Suite, scheme string, iCache bool, tech power.Technology) (float64, error) {
	all, err := s.AllContext(ctx)
	if err != nil {
		return 0, err
	}
	pol, err := table2Policy(scheme, tech)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, bd := range all {
		ev, err := evaluateCell(ctx, bd, bd.Name, "table2/"+scheme+"/"+bd.Name, iCache, tech, pol)
		if err != nil {
			return 0, err
		}
		sum += ev.Savings
	}
	return sum / float64(len(all)), nil
}

// Table3 renders the Prefetch-A / Prefetch-B mode-assignment rules of
// Section 5.2: both schemes apply the inflection-point mode to prefetchable
// intervals; they differ on non-prefetchable ones.
func Table3() *report.Table {
	t := report.NewTable("Table 3: Prefetch-A and Prefetch-B mode assignment",
		"interval", "prefetchable", "Prefetch-A", "Prefetch-B")
	t.MustAddRow("(0, a]", "counted non-prefetchable", "active", "active")
	t.MustAddRow("(a, b]", "yes", "drowsy", "drowsy")
	t.MustAddRow("(a, b]", "no", "active", "drowsy")
	t.MustAddRow("(b, +inf)", "yes", "sleep", "sleep")
	t.MustAddRow("(b, +inf)", "no", "active", "drowsy")
	t.MustAddRow("objective", "-", "high performance", "high power saving")
	return t
}
