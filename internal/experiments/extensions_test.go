package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/trace"
	"leakbound/internal/telemetry"
)

func TestExtendedSchemesTable(t *testing.T) {
	tab, err := ExtendedSchemesTableContext(context.Background(), testSuiteShared)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"Drowsy(2000)", "Adaptive decay", "AMC", "OPT-Hybrid"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// The bounds rows must dominate their implementable counterparts:
	// parse the rendered percentages back out.
	val := func(label string, col int) float64 {
		for _, row := range tab.Rows {
			if row[0] == label {
				v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
				if err != nil {
					t.Fatalf("bad cell %q", row[col])
				}
				return v
			}
		}
		t.Fatalf("row %q not found", label)
		return 0
	}
	for col := 1; col <= 2; col++ {
		if val("OPT-Drowsy (bound)", col) < val("Drowsy(2000) periodic", col) {
			t.Errorf("col %d: periodic drowsy beat its bound", col)
		}
		if val("OPT-Hybrid (bound)", col) < val("Adaptive decay (feedback)", col) {
			t.Errorf("col %d: adaptive decay beat the hybrid bound", col)
		}
		if val("Adaptive decay (feedback)", col) < val("AMC (tags alive)", col) {
			t.Errorf("col %d: AMC beat tag-free adaptive decay", col)
		}
	}
}

func TestL2Study(t *testing.T) {
	tab, err := L2StudyContext(context.Background(), testSuiteShared)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "average") {
		t.Fatalf("no average row:\n%s", out)
	}
	// The L2's frames are touched only on L1 misses: its oracle savings
	// must be at least as high as the L1 D-cache's on every benchmark.
	all, err := testSuiteShared.AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tech := power.Default()
	for _, bd := range all {
		l2, err := leakage.Evaluate(tech, bd.L2Cache, leakage.OPTHybrid{})
		if err != nil {
			t.Fatal(err)
		}
		l1, err := leakage.Evaluate(tech, bd.DCache, leakage.OPTHybrid{})
		if err != nil {
			t.Fatal(err)
		}
		if l2.Savings < l1.Savings-0.02 {
			t.Errorf("%s: L2 oracle savings %.3f below L1D %.3f", bd.Name, l2.Savings, l1.Savings)
		}
		if l2.Savings < 0.9 {
			t.Errorf("%s: L2 savings %.3f implausibly low for a 32x oversized cache", bd.Name, l2.Savings)
		}
		// Conservation on the L2 distribution too.
		if bd.L2Cache.Mass() != uint64(bd.L2Cache.NumFrames)*bd.L2Cache.TotalCycles {
			t.Errorf("%s: L2 mass conservation violated", bd.Name)
		}
	}
}

func TestWritebackAblation(t *testing.T) {
	tab, err := WritebackAblationContext(context.Background(), testSuiteShared)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4:\n%s", len(tab.Rows), tab.String())
	}
	// Savings must be non-increasing as the write-back cost grows.
	var prev float64 = 101
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		if v > prev+1e-9 {
			t.Errorf("savings increased with write-back cost: %v", tab.Rows)
		}
		prev = v
	}
	// The free row must show zero delta.
	if !strings.Contains(tab.Rows[0][2], "+0.00") {
		t.Errorf("free row delta = %q", tab.Rows[0][2])
	}
}

func TestTemperatureSweep(t *testing.T) {
	tab, err := TemperatureSweepContext(context.Background(), testSuiteShared, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab.String())
	}
	// The inflection point must shrink monotonically with temperature.
	var prevB float64 = 1e18
	for _, row := range tab.Rows {
		b, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad inflection cell %q", row[2])
		}
		if b >= prevB {
			t.Errorf("inflection not shrinking with temperature: %v", tab.Rows)
		}
		prevB = b
	}
	if _, err := TemperatureSweepContext(context.Background(), testSuiteShared, "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestDirtyIntervalsCollected(t *testing.T) {
	// The D-cache sees stores, so its distribution must contain
	// dirty-flagged intervals; the I-cache (fetch-only) must not.
	d, err := testSuiteShared.DataContext(context.Background(), "mesa")
	if err != nil {
		t.Fatal(err)
	}
	dDirty := d.DCache.Count(func(l uint64, f interval.Flags) bool { return f&interval.Dirty != 0 })
	if dDirty == 0 {
		t.Error("no dirty intervals in the D-cache distribution")
	}
	iDirty := d.ICache.Count(func(l uint64, f interval.Flags) bool { return f&interval.Dirty != 0 })
	if iDirty != 0 {
		t.Errorf("%d dirty intervals in the fetch-only I-cache", iDirty)
	}
}

func TestPrefetcherQualityTable(t *testing.T) {
	tab, err := PrefetcherQualityTableContext(context.Background(), testSuiteShared)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 6 benchmarks + average:\n%s", len(tab.Rows), tab.String())
	}
	// Every benchmark's engines must have seen traffic and produced rates
	// within [0,1]; the loop-structured codes must show high I coverage.
	all, err := testSuiteShared.AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range all {
		for _, st := range []struct {
			label string
			cov   float64
			acc   float64
			iss   uint64
		}{
			{"I", bd.IEngine.Coverage(), bd.IEngine.Accuracy(), bd.IEngine.Issued},
			{"D", bd.DEngine.Coverage(), bd.DEngine.Accuracy(), bd.DEngine.Issued},
		} {
			if st.iss == 0 {
				t.Errorf("%s/%s: engine issued nothing", bd.Name, st.label)
			}
			if st.cov < 0 || st.cov > 1 || st.acc < 0 || st.acc > 1 {
				t.Errorf("%s/%s: rates out of range (cov %g acc %g)", bd.Name, st.label, st.cov, st.acc)
			}
		}
	}
	// Sequential code makes next-line I-prefetch highly effective for the
	// tight-loop benchmarks.
	gz, _ := testSuiteShared.DataContext(context.Background(), "gzip")
	if gz.IEngine.Coverage() < 0.5 {
		t.Errorf("gzip I coverage %.3f implausibly low for straight-line loops", gz.IEngine.Coverage())
	}
	// applu's strided sweeps must make its D-side accuracy the best of the
	// suite (stride prefetch locks on).
	ap, _ := testSuiteShared.DataContext(context.Background(), "applu")
	for _, bd := range all {
		if bd.Name != "applu" && bd.DEngine.Accuracy() > ap.DEngine.Accuracy() {
			t.Errorf("%s D accuracy %.3f above applu's %.3f (stride should dominate)",
				bd.Name, bd.DEngine.Accuracy(), ap.DEngine.Accuracy())
		}
	}
}

func TestSimulateCustom(t *testing.T) {
	hc := cache.AlphaLike()
	dist, res, err := SimulateCustomContext(context.Background(), "gzip", 0.05, hc, trace.L1D)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Mass() != uint64(dist.NumFrames)*res.Cycles {
		t.Error("custom simulation violates mass conservation")
	}
	if _, _, err := SimulateCustomContext(context.Background(), "nope", 0.05, hc, trace.L1D); err == nil {
		t.Error("unknown benchmark accepted")
	}
	bad := hc
	bad.L1D.SizeBytes = 1000
	if _, _, err := SimulateCustomContext(context.Background(), "gzip", 0.05, bad, trace.L1D); err == nil {
		t.Error("bad hierarchy accepted")
	}
}

func TestGeometrySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("geometry sweep simulates 30 configurations")
	}
	tab, err := GeometrySweepContext(context.Background(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(GeometrySweepPoints()) {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab.String())
	}
	// The recoverable fraction must grow with cache size: OPT-Hybrid at
	// 128KB above OPT-Hybrid at 16KB.
	parse := func(row int, col int) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", tab.Rows[row][col])
		}
		return v
	}
	if parse(3, 3) <= parse(0, 3) {
		t.Errorf("OPT-Hybrid savings did not grow with cache size:\n%s", tab.String())
	}
	if _, err := GeometrySweepContext(context.Background(), 0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// First suite simulates and stores.
	s1 := MustNew(WithScale(0.03), WithCacheDir(dir))
	d1, err := s1.DataContext(context.Background(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	// Second suite must load identical data from disk without simulating;
	// verify by comparing the distributions exactly.
	s2 := MustNew(WithScale(0.03), WithCacheDir(dir))
	d2 := s2.loadCached(s2.cacheKey("gzip"), "gzip")
	if d2 == nil {
		t.Fatal("cache miss after store")
	}
	if !d1.ICache.Equal(d2.ICache) || !d1.DCache.Equal(d2.DCache) || !d1.L2Cache.Equal(d2.L2Cache) {
		t.Error("cached distributions differ from originals")
	}
	if d1.Result != d2.Result {
		t.Errorf("cached result differs: %+v vs %+v", d1.Result, d2.Result)
	}
	if d1.IEngine != d2.IEngine || d1.DEngine != d2.DEngine {
		t.Error("cached engine stats differ")
	}
	// A different scale must miss.
	s3 := MustNew(WithScale(0.04), WithCacheDir(dir))
	if s3.loadCached(s3.cacheKey("gzip"), "gzip") != nil {
		t.Error("cache hit across scales")
	}
	// Corrupt a distribution file: the loader must reject, not crash.
	key := s2.cacheKey("gzip")
	if err := osWriteFileHelper(dir+"/"+key+".icache", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if s2.loadCached(key, "gzip") != nil {
		t.Error("corrupted cache accepted")
	}
}

// TestDiskCacheRejectsForeignL2: an entry whose L2 distribution came from
// another simulation must miss, not serve a mismatched hierarchy.
func TestDiskCacheRejectsForeignL2(t *testing.T) {
	dir := t.TempDir()
	s1 := MustNew(WithScale(0.02), WithCacheDir(dir), WithMetrics(telemetry.NewRegistry()))
	for _, name := range []string{"gzip", "mesa"} {
		if _, err := s1.DataContext(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	foreign, err := os.ReadFile(filepath.Join(dir, s1.cacheKey("mesa")+".l2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := osWriteFileHelper(filepath.Join(dir, s1.cacheKey("gzip")+".l2"), foreign); err != nil {
		t.Fatal(err)
	}
	s2 := MustNew(WithScale(0.02), WithCacheDir(dir), WithMetrics(telemetry.NewRegistry()))
	if d := s2.loadCached(s2.cacheKey("gzip"), "gzip"); d != nil {
		t.Errorf("served gzip with a foreign L2: L2Cache.TotalCycles %d, Result.Cycles %d",
			d.L2Cache.TotalCycles, d.Result.Cycles)
	}
}

func TestLiveDeadStudy(t *testing.T) {
	tab, err := LiveDeadStudyContext(context.Background(), testSuiteShared)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab.String())
	}
	for _, row := range tab.Rows {
		share, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if err != nil {
			t.Fatalf("bad share cell %q", row[1])
		}
		if share <= 0 {
			t.Errorf("%s: zero dead mass — eviction tracking broken", row[0])
		}
		lengthOnly, _ := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
		deadAware, _ := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		// Dead knowledge can only help...
		if deadAware < lengthOnly-1e-9 {
			t.Errorf("%s: dead-aware oracle below length-only", row[0])
		}
		// ...and per the paper's Section 3.1 claim, by very little.
		if deadAware-lengthOnly > 3.0 {
			t.Errorf("%s: dead knowledge added %.2f points — the paper's claim "+
				"(small contribution) does not reproduce", row[0], deadAware-lengthOnly)
		}
	}
}

func TestDeadEndFlagsCollected(t *testing.T) {
	d, err := testSuiteShared.DataContext(context.Background(), "vortex")
	if err != nil {
		t.Fatal(err)
	}
	dead := d.DCache.Count(func(l uint64, f interval.Flags) bool { return f&interval.DeadEnd != 0 })
	live := d.DCache.Count(func(l uint64, f interval.Flags) bool {
		return f.Interior() && f&interval.DeadEnd == 0
	})
	if dead == 0 {
		t.Error("no dead-ending intervals in a thrashing D-cache")
	}
	if live == 0 {
		t.Error("no live intervals")
	}
	// Hits vastly outnumber misses, so live intervals must dominate counts.
	if dead >= live {
		t.Errorf("dead (%d) >= live (%d): miss flagging suspicious", dead, live)
	}
}

func TestBreakdownTable(t *testing.T) {
	tab, err := BreakdownTableContext(context.Background(), testSuiteShared)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 6 benchmarks x 2 caches
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab.String())
	}
	for _, row := range tab.Rows {
		var sum float64
		for _, cell := range row[2:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			sum += v
		}
		if sum < 99.0 || sum > 101.0 {
			t.Errorf("%s/%s: components sum to %.2f%%, want ~100%%", row[0], row[1], sum)
		}
	}
}

func TestIntervalStats(t *testing.T) {
	d, err := testSuiteShared.DataContext(context.Background(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	s, h, err := IntervalStats(d.ICache)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() == 0 || h.Total() == 0 {
		t.Fatal("empty stats")
	}
	if int64(h.Total()) != s.N() {
		t.Errorf("histogram total %d != summary N %d", h.Total(), s.N())
	}
	// The summary's total mass must equal the distribution's interior mass.
	interior := d.ICache.MassWhere(func(l uint64, f interval.Flags) bool { return f.Interior() })
	if uint64(s.Sum()) != interior {
		t.Errorf("summary mass %.0f != interior mass %d", s.Sum(), interior)
	}
	tab, err := IntervalStatsTable("t", d.ICache)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Errorf("stats table too small:\n%s", tab.String())
	}
	// Count shares (all but the summary row) must sum to ~100%.
	var sum float64
	for _, row := range tab.Rows[:len(tab.Rows)-1] {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		sum += v
	}
	if sum < 99 || sum > 101 {
		t.Errorf("count shares sum to %.2f%%", sum)
	}
	empty := interval.NewDistribution(1, 1)
	if _, err := IntervalStatsTable("t", empty); err == nil {
		t.Error("empty distribution accepted")
	}
}
