package experiments

// Tests for the parallel pipeline: the worker count must not change any
// simulation product, shared distributions must be safe to walk
// concurrently, the parallel evaluation must be bit-identical to the
// sequential evaluation loops it replaced, cancellation must be prompt
// and leak-free, and the singleflight gate must collapse concurrent
// simulations of one benchmark into one run.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
	"leakbound/internal/telemetry"
)

// TestWorkersDoNotChangeResults pins pool determinism end to end: a
// suite simulating every benchmark through a 4-worker pool produces
// byte-identical distributions, identical simulation results and
// identical engine statistics to a 1-worker suite.
func TestWorkersDoNotChangeResults(t *testing.T) {
	seqAll, err := MustNew(WithScale(0.05), WithWorkers(1), WithMetrics(telemetry.NewRegistry())).AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parAll, err := MustNew(WithScale(0.05), WithWorkers(4), WithMetrics(telemetry.NewRegistry())).AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, sd := range seqAll {
		pd, name := parAll[i], sd.Name
		if pd.Name != name {
			t.Fatalf("benchmark %d: %s vs %s", i, name, pd.Name)
		}
		if sd.Result != pd.Result {
			t.Errorf("%s: results differ: %+v vs %+v", name, sd.Result, pd.Result)
		}
		if !sd.ICache.Equal(pd.ICache) {
			t.Errorf("%s: I-cache distributions differ between 1 and 4 workers", name)
		}
		if !sd.DCache.Equal(pd.DCache) {
			t.Errorf("%s: D-cache distributions differ between 1 and 4 workers", name)
		}
		if !sd.L2Cache.Equal(pd.L2Cache) {
			t.Errorf("%s: L2 distributions differ between 1 and 4 workers", name)
		}
		if sd.IEngine != pd.IEngine || sd.DEngine != pd.DEngine {
			t.Errorf("%s: prefetch engine stats differ between worker counts", name)
		}
		// Conservation must hold on the parallel suite's output too.
		if pd.ICache.Mass() != uint64(pd.ICache.NumFrames)*pd.Result.Cycles {
			t.Errorf("%s: 4-worker I-cache violates mass conservation", name)
		}
	}
}

// TestL2WalksRaceFree reads a benchmark's L2 distribution from two
// goroutines at once, on a freshly simulated suite and on one loaded from
// the disk cache: one walks it, the other builds its aggregates, as two
// concurrent L2 studies do. The Suite keeps no L2 aggregate, so every
// study reads the shared distribution, and only the tail compaction in
// Collector.Finish and ReadDistribution keeps those reads from racing;
// run under -race (make race, make test-parallel).
func TestL2WalksRaceFree(t *testing.T) {
	fresh := MustNew(WithScale(0.05), WithMetrics(telemetry.NewRegistry()))
	fd, err := fresh.DataContext(context.Background(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	walkConcurrently(t, "fresh", fd.L2Cache)

	reg := telemetry.NewRegistry()
	loaded := MustNew(WithScale(0.05), WithCacheDir(t.TempDir()), WithMetrics(reg))
	loaded.storeCached(loaded.cacheKey("gzip"), fd)
	ld, err := loaded.DataContext(context.Background(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Scope("diskcache").Counter("hits").Value(); hits != 1 {
		t.Fatalf("diskcache hits = %d, want 1", hits)
	}
	walkConcurrently(t, "loaded", ld.L2Cache)
}

// walkConcurrently runs an Each walk and an aggregate build over d on two
// goroutines and checks both saw the whole distribution, including its
// long tail.
func walkConcurrently(t *testing.T, label string, d *interval.Distribution) {
	t.Helper()
	var wg sync.WaitGroup
	var counted, mass uint64
	wg.Add(2)
	go func() {
		defer wg.Done()
		d.Each(func(_ uint64, _ interval.Flags, count uint64) bool {
			counted += count
			return true
		})
	}()
	go func() {
		defer wg.Done()
		agg := interval.NewAggregates(d)
		for i := range agg.Classes() {
			mass += agg.Classes()[i].TotalMass()
		}
	}()
	wg.Wait()
	if counted != d.NumIntervals() || mass != d.Mass() {
		t.Errorf("%s: walks saw %d intervals / mass %d, want %d / %d", label, counted, mass, d.NumIntervals(), d.Mass())
	}
	// Lengths from 8192 up live in the sparse tail that compaction sorts.
	if long := d.Count(func(l uint64, _ interval.Flags) bool { return l >= 8192 }); long == 0 {
		t.Errorf("%s: no long intervals, so the walks never touched the tail", label)
	}
}

// TestEvaluateSideMatchesSequential is the golden check for the parallel
// evaluation path: Figure 7, Figure 8 and Table 2 values computed through
// evaluateSide (one compiled policy list, one task per benchmark) must
// equal — bit for bit, not approximately — a sequential re-evaluation in
// the original loop order. The sequential oracle here is single-policy
// leakage.EvaluateMany over the same cached summaries: neither scheduling
// order nor a policy's position in the compiled list may leak into the
// output. Fast-path agreement with the reference bucket walk is pinned
// separately in leakage.TestEvaluateAggregateMatchesReference.
func TestEvaluateSideMatchesSequential(t *testing.T) {
	s := testSuiteShared
	all, err := s.AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tech := power.Default()
	sequential := func(agg *interval.Aggregates, p leakage.Policy) leakage.Evaluation {
		t.Helper()
		evs, err := leakage.EvaluateMany(tech, agg, []leakage.Policy{p})
		if err != nil {
			t.Fatal(err)
		}
		return evs[0]
	}

	// Figure 8, I-cache side.
	rows, err := Figure8Context(context.Background(), s, true)
	if err != nil {
		t.Fatal(err)
	}
	policies := Figure8Policies()
	wantAvg := make([]float64, len(policies))
	for r, bd := range all {
		for i, p := range policies {
			ev := sequential(bd.IAgg, p)
			if rows[r].Savings[i] != ev.Savings {
				t.Fatalf("fig8 %s/%s: grid %v != sequential %v",
					bd.Name, p.Name(), rows[r].Savings[i], ev.Savings)
			}
			wantAvg[i] += ev.Savings / float64(len(all))
		}
	}
	for i := range policies {
		if rows[len(rows)-1].Savings[i] != wantAvg[i] {
			t.Fatalf("fig8 average[%d]: grid %v != sequential %v",
				i, rows[len(rows)-1].Savings[i], wantAvg[i])
		}
	}

	// Figure 7, D-cache side: the per-theta averages must match the
	// sequential accumulation order exactly.
	sleep, hybrid, err := Figure7Context(context.Background(), s, false)
	if err != nil {
		t.Fatal(err)
	}
	for ti, theta := range Figure7Thetas() {
		var sSum, hSum float64
		for _, bd := range all {
			sEv := sequential(bd.DAgg, leakage.OPTSleep{Theta: theta})
			hEv := sequential(bd.DAgg, leakage.OPTHybrid{SleepTheta: theta})
			sSum += sEv.Savings
			hSum += hEv.Savings
		}
		n := float64(len(all))
		if sleep.Y[ti] != sSum/n || hybrid.Y[ti] != hSum/n {
			t.Fatalf("fig7 theta=%d: grid (%v, %v) != sequential (%v, %v)",
				theta, sleep.Y[ti], hybrid.Y[ti], sSum/n, hSum/n)
		}
	}

	// One Table 2 cell per scheme.
	for _, scheme := range []string{"OPT-Drowsy", "OPT-Sleep", "OPT-Hybrid"} {
		got, err := Table2ValueContext(context.Background(), s, scheme, false, tech)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := table2Policy(scheme, tech)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, bd := range all {
			sum += sequential(bd.DAgg, pol).Savings
		}
		if want := sum / float64(len(all)); got != want {
			t.Fatalf("table2 %s: grid %v != sequential %v", scheme, got, want)
		}
	}
}

// TestAllContextCancelNoLeak cancels a suite-wide simulation mid-flight:
// AllContext must return ctx.Err() promptly, and every pool worker must
// drain afterwards.
func TestAllContextCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := telemetry.NewRegistry()
	s := MustNew(WithScale(0.5), WithWorkers(4), WithMetrics(reg))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := s.AllContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	// All pool workers must exit; poll because worker teardown finishes
	// just after AllContext returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A subsequent call on a fresh context must still work (the failed
	// singleflight entries must not wedge the suite).
	if _, err := s.DataContext(context.Background(), "gzip"); err != nil {
		t.Fatalf("suite unusable after cancellation: %v", err)
	}
}

// TestForEachCancelNoLeak cancels the suite's fan-out from inside a task:
// forEach must return ctx.Err() — not a task's own error — skip the tasks
// not yet started, and leave no pool worker behind. A real fan-out, the
// geometry sweep, must also stop promptly when cancelled mid-simulation.
func TestForEachCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := MustNew(WithWorkers(4), WithMetrics(telemetry.NewRegistry()))
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1000
	errTask := errors.New("task")
	var ran atomic.Int64
	err := s.forEach(ctx, n, func(i int) error {
		if ran.Add(1) >= 8 {
			cancel()
			return errTask
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || errors.Is(err, errTask) {
		t.Fatalf("got %v, want context.Canceled and not the task error", err)
	}
	if got := ran.Load(); got >= n {
		t.Errorf("%d of %d tasks ran after cancellation; want the rest skipped", got, n)
	}

	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := s.GeometrySweepContext(ctx, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("geometry sweep: got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("geometry sweep cancellation took %v, want prompt return", elapsed)
	}
	// Poll: worker teardown finishes just after forEach returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStudiesDoNotDependOnWorkers pins the forEach contract on every study
// that fans out through it: each extension table and the geometry sweep
// render byte-identical text at 1 and at 4 workers.
func TestStudiesDoNotDependOnWorkers(t *testing.T) {
	render := func(workers int) string {
		s := MustNew(WithScale(0.05), WithWorkers(workers), WithMetrics(telemetry.NewRegistry()))
		ctx := context.Background()
		studies := []func() (*report.Table, error){
			func() (*report.Table, error) { return ExtendedSchemesTableContext(ctx, s) },
			func() (*report.Table, error) { return L2StudyContext(ctx, s) },
			func() (*report.Table, error) { return WritebackAblationContext(ctx, s) },
			func() (*report.Table, error) { return TemperatureSweepContext(ctx, s, "gzip") },
			func() (*report.Table, error) { return PrefetcherQualityTableContext(ctx, s) },
			func() (*report.Table, error) { return s.GeometrySweepContext(ctx, 0.05) },
			func() (*report.Table, error) { return LiveDeadStudyContext(ctx, s) },
			func() (*report.Table, error) { return BreakdownTableContext(ctx, s) },
		}
		var b strings.Builder
		for i, study := range studies {
			tab, err := study()
			if err != nil {
				t.Fatalf("workers=%d, study %d: %v", workers, i, err)
			}
			if err := tab.Render(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	seq, par := render(1), render(4)
	if seq != par {
		t.Errorf("studies differ between 1 and 4 workers:\n--- 1 worker\n%s\n--- 4 workers\n%s", seq, par)
	}
}

// TestDataSingleflight pins the Data race fix: many concurrent requests
// for one benchmark must run exactly one simulation.
func TestDataSingleflight(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := MustNew(WithScale(0.02), WithMetrics(reg))
	const callers = 8
	results := make([]*BenchmarkData, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.DataContext(context.Background(), "gzip")
		}()
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *BenchmarkData — duplicate simulation", i)
		}
	}
	if got := reg.Scope("suite").Counter("fresh_sims").Value(); got != 1 {
		t.Fatalf("fresh_sims = %d, want 1 (singleflight collapsed %d callers)", got, callers)
	}
}

// TestDataLeaderPanicReleasesKey: a singleflight leader whose produce
// panics must not wedge its key. The panic reaches the leader's caller,
// and the next caller for that key leads a fresh produce instead of
// waiting out its deadline on the dead leader's gate.
func TestDataLeaderPanicReleasesKey(t *testing.T) {
	s := MustNew(WithScale(0.02), WithMetrics(telemetry.NewRegistry()))
	func() {
		defer func() {
			if v := recover(); v != "boom" {
				t.Fatalf("leader recovered %v, want produce's panic", v)
			}
		}()
		_, _ = s.dataByKey(context.Background(), "k", false, func(context.Context) (*BenchmarkData, error) {
			panic("boom")
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	want := &BenchmarkData{Name: "k"}
	d, err := s.dataByKey(ctx, "k", false, func(context.Context) (*BenchmarkData, error) { return want, nil })
	if err != nil || d != want {
		t.Fatalf("caller after a panicked leader: %v, %v", d, err)
	}
}

// TestWaiterCancellationDoesNotPoison verifies one caller's context does
// not decide another's fate: a waiter with a cancelled context gets
// context.Canceled while the patient caller still gets data.
func TestWaiterCancellationDoesNotPoison(t *testing.T) {
	s := MustNew(WithScale(0.05), WithMetrics(telemetry.NewRegistry()))
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.DataContext(context.Background(), "vortex")
		leaderDone <- err
	}()
	// Give the leader a head start, then join as a waiter with an
	// already-cancelled context.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DataContext(ctx, "vortex"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader poisoned by waiter's cancellation: %v", err)
	}
}

// TestOptionsValidation exercises the functional options API and its
// sentinel errors.
func TestOptionsValidation(t *testing.T) {
	if _, err := New(WithScale(0)); !errors.Is(err, ErrNonPositiveScale) {
		t.Errorf("WithScale(0): got %v, want ErrNonPositiveScale", err)
	}
	if _, err := New(WithScale(-3)); !errors.Is(err, ErrNonPositiveScale) {
		t.Errorf("WithScale(-3): got %v, want ErrNonPositiveScale", err)
	}
	if _, err := New(nil); !errors.Is(err, ErrBadOption) {
		t.Errorf("nil option: got %v, want ErrBadOption", err)
	}
	if _, err := New(WithMetrics(nil)); !errors.Is(err, ErrBadOption) {
		t.Errorf("WithMetrics(nil): got %v, want ErrBadOption", err)
	}
	s, err := New(WithScale(0.5), WithWorkers(3), WithCacheDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale() != 0.5 {
		t.Errorf("scale = %g, want 0.5", s.Scale())
	}
	if s.poolWorkers() != 3 {
		t.Errorf("poolWorkers = %d, want 3", s.poolWorkers())
	}
	if def := MustNew(); def.poolWorkers() != runtime.GOMAXPROCS(0) {
		t.Errorf("default poolWorkers = %d, want GOMAXPROCS", def.poolWorkers())
	}
	if _, err := Table2ValueContext(context.Background(), testSuiteShared, "OPT-Bogus", true, power.Default()); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("unknown scheme: got %v, want ErrUnknownScheme", err)
	}
}

// TestEvaluateSideErrors verifies an evaluation failure carries the
// underlying sentinel and names the query and the benchmark.
func TestEvaluateSideErrors(t *testing.T) {
	s := MustNew(WithMetrics(telemetry.NewRegistry()))
	all := []*BenchmarkData{{Name: "bad-bench"}}
	_, err := s.evaluateSide(context.Background(), "bad-query", all, true, power.Default(), []leakage.Policy{leakage.OPTDrowsy{}})
	if !errors.Is(err, leakage.ErrNilDistribution) {
		t.Fatalf("got %v, want leakage.ErrNilDistribution", err)
	}
	if !strings.Contains(err.Error(), "bad-query/bad-bench") {
		t.Fatalf("error %q does not name the query and the benchmark", err)
	}
}
