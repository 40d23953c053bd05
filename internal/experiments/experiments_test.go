package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// testSuite simulates at a reduced scale; shared across tests in this
// package to keep the suite's cache warm.
var testSuiteShared = MustNew(WithScale(0.12))

func TestNewSuiteValidation(t *testing.T) {
	if _, err := New(WithScale(0)); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := New(WithScale(-1)); err == nil {
		t.Error("negative scale accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(WithScale(0))
}

func TestSuiteDataCaching(t *testing.T) {
	s := testSuiteShared
	a, err := s.DataContext(context.Background(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.DataContext(context.Background(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Data did not cache")
	}
	if _, err := s.DataContext(context.Background(), "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if a.ICache.Mass() != uint64(a.ICache.NumFrames)*a.ICache.TotalCycles {
		t.Error("I-cache mass conservation violated")
	}
	if a.DCache.Mass() != uint64(a.DCache.NumFrames)*a.DCache.TotalCycles {
		t.Error("D-cache mass conservation violated")
	}
}

func TestSuiteAll(t *testing.T) {
	all, err := testSuiteShared.AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("got %d benchmarks", len(all))
	}
	want := []string{"ammp", "applu", "gcc", "gzip", "mesa", "vortex"}
	for i, bd := range all {
		if bd.Name != want[i] {
			t.Errorf("benchmark %d = %s, want %s", i, bd.Name, want[i])
		}
		if bd.Result.Cycles < 103084 {
			t.Errorf("%s: only %d cycles — below the 180nm inflection point, results meaningless",
				bd.Name, bd.Result.Cycles)
		}
	}
	if got := len(testSuiteShared.SortedNames()); got != 6 {
		t.Errorf("SortedNames = %d entries", got)
	}
}

func TestFigure1(t *testing.T) {
	tab := Figure1()
	out := tab.String()
	if !strings.Contains(out, "1999") || !strings.Contains(out, "2009") {
		t.Errorf("Figure 1 years missing:\n%s", out)
	}
	s := Figure1Series()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Monotonically increasing leakage share.
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] <= s.Y[i-1] {
			t.Errorf("ITRS share not increasing at %g", s.X[i])
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"1057", "5088", "10328", "103084"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %s:\n%s", want, out)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	s := testSuiteShared
	tab, err := Table2Context(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // Vdd, Vth, 2 caches x 3 schemes
		t.Fatalf("Table 2 has %d rows:\n%s", len(tab.Rows), tab.String())
	}
	// Paper's qualitative claims:
	// 1. OPT-Hybrid savings increase as technology scales down (both
	// caches), at every step from 180nm to 70nm.
	for _, iCache := range []bool{true, false} {
		techs := power.Technologies()
		prev := math.Inf(-1)
		for i := len(techs) - 1; i >= 0; i-- { // 180nm -> 70nm
			v, err := Table2ValueContext(context.Background(), s, "OPT-Hybrid", iCache, techs[i])
			if err != nil {
				t.Fatal(err)
			}
			if v <= prev {
				t.Errorf("iCache=%v: hybrid savings at %s (%.4f) not above the node before (%.4f)", iCache, techs[i].Name, v, prev)
			}
			prev = v
		}
		v70, _ := Table2ValueContext(context.Background(), s, "OPT-Hybrid", iCache, techs[0])
		v180, _ := Table2ValueContext(context.Background(), s, "OPT-Hybrid", iCache, techs[3])
		if v70 <= v180 {
			t.Errorf("iCache=%v: hybrid savings at 70nm (%.3f) not above 180nm (%.3f)", iCache, v70, v180)
		}
		// 2. At 180nm drowsy beats sleep; at 70nm sleep beats drowsy.
		d180, _ := Table2ValueContext(context.Background(), s, "OPT-Drowsy", iCache, techs[3])
		s180, _ := Table2ValueContext(context.Background(), s, "OPT-Sleep", iCache, techs[3])
		if s180 >= d180 {
			t.Errorf("iCache=%v: at 180nm sleep (%.3f) beat drowsy (%.3f)", iCache, s180, d180)
		}
		d70, _ := Table2ValueContext(context.Background(), s, "OPT-Drowsy", iCache, techs[0])
		s70, _ := Table2ValueContext(context.Background(), s, "OPT-Sleep", iCache, techs[0])
		if s70 <= d70 {
			t.Errorf("iCache=%v: at 70nm drowsy (%.3f) beat sleep (%.3f)", iCache, d70, s70)
		}
		// 3. OPT-Drowsy sits near 2/3 everywhere.
		if math.Abs(d70-2.0/3) > 0.02 {
			t.Errorf("iCache=%v: OPT-Drowsy at 70nm = %.3f, want ~0.667", iCache, d70)
		}
	}
	if _, err := Table2ValueContext(context.Background(), s, "bogus", true, power.Default()); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestTable3(t *testing.T) {
	out := Table3().String()
	for _, want := range []string{"Prefetch-A", "Prefetch-B", "drowsy", "sleep"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	s := testSuiteShared
	for _, iCache := range []bool{true, false} {
		sleep, hybrid, err := Figure7Context(context.Background(), s, iCache)
		if err != nil {
			t.Fatal(err)
		}
		if len(sleep.X) != len(Figure7Thetas()) {
			t.Fatalf("sweep length %d", len(sleep.X))
		}
		// Paper's qualitative claims for Figure 7:
		for i := range sleep.X {
			// 1. Hybrid never loses to pure sleep.
			if hybrid.Y[i] < sleep.Y[i]-1e-9 {
				t.Errorf("iCache=%v theta=%g: hybrid %.4f below sleep %.4f",
					iCache, sleep.X[i], hybrid.Y[i], sleep.Y[i])
			}
		}
		// 2. Pure sleep degrades as theta grows; the gap to hybrid widens.
		if sleep.Y[0] <= sleep.Y[len(sleep.Y)-1] {
			t.Errorf("iCache=%v: sleep savings did not fall as theta grew (%.4f -> %.4f)",
				iCache, sleep.Y[0], sleep.Y[len(sleep.Y)-1])
		}
		gapStart := hybrid.Y[0] - sleep.Y[0]
		gapEnd := hybrid.Y[len(hybrid.Y)-1] - sleep.Y[len(sleep.Y)-1]
		if gapEnd <= gapStart {
			t.Errorf("iCache=%v: drowsy usefulness did not grow with theta (gap %.4f -> %.4f)",
				iCache, gapStart, gapEnd)
		}
	}
	// 3. The sleep-mode degradation is steeper for the I-cache than the
	// D-cache (the paper: sleep plays a bigger role in the D-cache).
	iSleep, _, err := Figure7Context(context.Background(), s, true)
	if err != nil {
		t.Fatal(err)
	}
	dSleep, _, err := Figure7Context(context.Background(), s, false)
	if err != nil {
		t.Fatal(err)
	}
	iDrop := iSleep.Y[0] - iSleep.Y[len(iSleep.Y)-1]
	dDrop := dSleep.Y[0] - dSleep.Y[len(dSleep.Y)-1]
	if iDrop <= dDrop {
		t.Errorf("I-cache sleep drop (%.4f) not steeper than D-cache (%.4f)", iDrop, dDrop)
	}
}

func TestFigure8Orderings(t *testing.T) {
	s := testSuiteShared
	idx := map[string]int{}
	for i, p := range Figure8Policies() {
		idx[p.Name()] = i
	}
	for _, iCache := range []bool{true, false} {
		rows, err := Figure8Context(context.Background(), s, iCache)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 7 {
			t.Fatalf("rows = %d, want 6 benchmarks + average", len(rows))
		}
		avg := rows[len(rows)-1]
		if avg.Benchmark != "average" {
			t.Fatalf("last row is %q", avg.Benchmark)
		}
		get := func(name string) float64 { return avg.Savings[idx[name]] }
		// The paper's dominance chain on the averages.
		if !(get("OPT-Hybrid") >= get("OPT-Sleep(10000)") &&
			get("OPT-Sleep(10000)") >= get("Sleep(10000)")) {
			t.Errorf("iCache=%v: hybrid/oracle/decay ordering broken: %.3f %.3f %.3f",
				iCache, get("OPT-Hybrid"), get("OPT-Sleep(10000)"), get("Sleep(10000)"))
		}
		if get("OPT-Hybrid") <= get("OPT-Drowsy") {
			t.Errorf("iCache=%v: hybrid not above drowsy", iCache)
		}
		if get("Prefetch-B") <= get("Prefetch-A") {
			t.Errorf("iCache=%v: Prefetch-B (%.3f) not above Prefetch-A (%.3f)",
				iCache, get("Prefetch-B"), get("Prefetch-A"))
		}
		if get("Prefetch-B") >= get("OPT-Hybrid") {
			t.Errorf("iCache=%v: Prefetch-B beat the oracle", iCache)
		}
		// Headline magnitudes (loose bands; exact values in EXPERIMENTS.md).
		if h := get("OPT-Hybrid"); h < 0.90 || h > 0.999 {
			t.Errorf("iCache=%v: OPT-Hybrid = %.3f outside (0.90, 0.999)", iCache, h)
		}
	}
}

func TestFigure8TableRenders(t *testing.T) {
	tab, err := Figure8TableContext(context.Background(), testSuiteShared, true)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "average") || !strings.Contains(out, "OPT-Hybrid") {
		t.Errorf("Figure 8 table malformed:\n%s", out)
	}
}

func TestFigure9Shape(t *testing.T) {
	s := testSuiteShared
	iP, err := Figure9Context(context.Background(), s, true)
	if err != nil {
		t.Fatal(err)
	}
	dP, err := Figure9Context(context.Background(), s, false)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: I-cache prefetchability comes from next-line only; the
	// D-cache adds a stride component.
	if iP.NLShare() <= 0.05 {
		t.Errorf("I-cache NL share %.3f implausibly low", iP.NLShare())
	}
	if iP.PrefetchableShare() >= 0.6 {
		t.Errorf("I-cache prefetchable share %.3f implausibly high", iP.PrefetchableShare())
	}
	if dP.StrideShare() <= 0 {
		t.Error("D-cache stride share is zero — applu's strided sweeps not detected")
	}
	if dP.NLShare() <= dP.StrideShare() {
		t.Errorf("D-cache NL (%.3f) not above stride (%.3f)", dP.NLShare(), dP.StrideShare())
	}
	tab, err := Figure9TableContext(context.Background(), s, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "P-stride") {
		t.Error("Figure 9 table malformed")
	}
}

func TestFigure10Envelope(t *testing.T) {
	pts, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no envelope points")
	}
	// Regimes appear in order active -> drowsy -> sleep as length grows.
	seen := []string{}
	for _, p := range pts {
		name := p.Best.String()
		if len(seen) == 0 || seen[len(seen)-1] != name {
			seen = append(seen, name)
		}
	}
	want := "active,drowsy,sleep"
	if strings.Join(seen, ",") != want {
		t.Errorf("regime order = %v, want %s", seen, want)
	}
	tab, err := Figure10Table()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "envelope") {
		t.Error("Figure 10 table malformed")
	}
}

func TestGapToOptimal(t *testing.T) {
	pb, opt, gap, err := GapToOptimalContext(context.Background(), testSuiteShared, true)
	if err != nil {
		t.Fatal(err)
	}
	if gap < 0 {
		t.Errorf("Prefetch-B (%.3f) above optimal (%.3f)", pb, opt)
	}
	if gap > 0.25 {
		t.Errorf("gap to optimal %.3f implausibly large", gap)
	}
}

func TestMassProfile(t *testing.T) {
	d, err := testSuiteShared.DataContext(context.Background(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	prof := MassProfile(d.ICache)
	var total float64
	for _, v := range prof {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("mass profile sums to %g", total)
	}
	// Each regime's share equals a predicate walk over its length range.
	for name, r := range map[string][2]float64{
		"(0,6]": {0, 6}, "(6,1057]": {6, 1057}, "(1057,10K]": {1057, 10000},
		"(10K,103K]": {10000, 103084}, "(103K,+inf)": {103084, math.Inf(1)},
	} {
		mass := d.ICache.MassWhere(func(l uint64, _ interval.Flags) bool { return float64(l) > r[0] && float64(l) <= r[1] })
		if want := float64(mass) / float64(d.ICache.Mass()); prof[name] != want {
			t.Errorf("regime %s: share %v, walk %v", name, prof[name], want)
		}
	}
}
