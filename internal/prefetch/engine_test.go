package prefetch

import (
	"math/rand"
	"testing"

	"leakbound/internal/sim/trace"
)

func engCfg() EngineConfig { return DefaultEngineConfig(ForDCache()) }

// access feeds one boxed event to e's column entry point.
func access(e *Engine, ev trace.Event) int {
	return e.AccessCols(ev.Cycle, ev.LineAddr, ev.PC, ev.Kind, ev.Miss)
}

func TestEngineConfigValidate(t *testing.T) {
	good := engCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Lookahead = 0
	if bad.Validate() == nil {
		t.Error("zero lookahead accepted")
	}
	bad = good
	bad.NextLine, bad.Stride = false, false
	if bad.Validate() == nil {
		t.Error("no predictors accepted")
	}
	if _, err := NewEngine(bad); err == nil {
		t.Error("NewEngine accepted bad config")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewEngine did not panic")
		}
	}()
	MustNewEngine(bad)
}

func TestEngineNextLineUseful(t *testing.T) {
	e := MustNewEngine(engCfg())
	// Access line 10 at cycle 0 -> prefetch line 11; demand line 11 at
	// cycle 100 (miss): useful, covered.
	access(e, dEvent(0, 10, 0x1))
	ev := dEvent(100, 11, 0x1)
	ev.Miss = true
	access(e, ev)
	st := e.Finish()
	if st.Useful != 1 {
		t.Errorf("useful = %d, want 1", st.Useful)
	}
	if st.CoveredMisses != 1 || st.DemandMisses != 1 {
		t.Errorf("coverage stats: %+v", st)
	}
	if st.Coverage() != 1 {
		t.Errorf("coverage = %g", st.Coverage())
	}
}

func TestEngineLatePrefetch(t *testing.T) {
	e := MustNewEngine(engCfg())
	access(e, dEvent(0, 10, 0x1))
	// Demand arrives 3 cycles later: under MinLatency 7 -> late.
	access(e, dEvent(3, 11, 0x1))
	st := e.Finish()
	if st.Late != 1 || st.Useful != 0 {
		t.Errorf("late prefetch accounting: %+v", st)
	}
}

func TestEngineUselessAgesOut(t *testing.T) {
	cfg := engCfg()
	cfg.Lookahead = 100
	e := MustNewEngine(cfg)
	access(e, dEvent(0, 10, 0x1))
	// Far-future access to an unrelated line triggers the sweep.
	access(e, dEvent(1000, 500, 0x2))
	st := e.Finish()
	if st.Useless < 1 {
		t.Errorf("aged-out prefetch not counted useless: %+v", st)
	}
	if st.Accuracy() != 0 {
		t.Errorf("accuracy = %g, want 0", st.Accuracy())
	}
}

func TestEngineStridePrediction(t *testing.T) {
	cfg := DefaultEngineConfig(Config{Stride: true})
	e := MustNewEngine(cfg)
	const pc = 0x400100
	// Lines 10, 14, 18 (stride 4): after confirmation the engine must
	// prefetch line 22.
	access(e, dEvent(0, 10, pc))
	access(e, dEvent(50, 14, pc))
	n := access(e, dEvent(100, 18, pc)) // stride confirmed here
	if n != 1 {
		t.Fatalf("issued %d prefetches on confirmation, want 1", n)
	}
	ev := dEvent(200, 22, pc)
	ev.Miss = true
	access(e, ev)
	st := e.Finish()
	if st.Useful != 1 || st.CoveredMisses != 1 {
		t.Errorf("stride prefetch accounting: %+v", st)
	}
}

func TestEngineNextLineIssuesOnce(t *testing.T) {
	e := MustNewEngine(DefaultEngineConfig(Config{NextLine: true}))
	n := access(e, dEvent(0, 10, 0x1))
	if n != 1 {
		t.Errorf("next-line issued %d, want 1", n)
	}
	if rec := e.inflight.Lookup(11); rec == nil || *rec == 0 {
		t.Error("next line 11 not in flight")
	}
	// Duplicate issues are suppressed.
	n = access(e, dEvent(1, 10, 0x1))
	if n != 0 {
		t.Errorf("duplicate issue not suppressed: %d", n)
	}
}

func TestEngineStatsConservation(t *testing.T) {
	e := MustNewEngine(engCfg())
	for i := uint64(0); i < 1000; i++ {
		ev := dEvent(i*10, i%64, 0x1)
		ev.Miss = i%7 == 0
		access(e, ev)
	}
	st := e.Finish()
	if st.Issued != st.Useful+st.Late+st.Useless {
		t.Errorf("issued %d != useful %d + late %d + useless %d",
			st.Issued, st.Useful, st.Late, st.Useless)
	}
	if st.DemandAccesses != 1000 {
		t.Errorf("demand accesses = %d", st.DemandAccesses)
	}
	if st.CoveredMisses > st.DemandMisses {
		t.Error("covered more misses than occurred")
	}
	acc := st.Accuracy()
	cov := st.Coverage()
	if acc < 0 || acc > 1 || cov < 0 || cov > 1 {
		t.Errorf("rates out of range: accuracy %g coverage %g", acc, cov)
	}
}

func TestEngineEmptyStats(t *testing.T) {
	var st EngineStats
	if st.Accuracy() != 0 || st.Coverage() != 0 {
		t.Error("empty stats rates not 0")
	}
}

// TestEngineShareStrides checks ShareStrides' refusals, and that an engine
// issuing a collector classifier's stride predictions counts exactly what
// one running its own stride classifier counts.
func TestEngineShareStrides(t *testing.T) {
	if err := MustNewEngine(engCfg()).ShareStrides(nil); err == nil {
		t.Error("nil classifier accepted")
	}
	if err := MustNewEngine(engCfg()).ShareStrides(MustNewClassifier(ForICache())); err == nil {
		t.Error("mismatched config accepted")
	}
	used := MustNewEngine(engCfg())
	access(used, dEvent(0, 10, 0x1))
	if err := used.ShareStrides(MustNewClassifier(ForDCache())); err == nil {
		t.Error("engine with stride state accepted a shared classifier")
	}

	owned, shared := MustNewEngine(engCfg()), MustNewEngine(engCfg())
	cl := MustNewClassifier(ForDCache())
	if err := shared.ShareStrides(cl); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, a := range randomAccesses(rng, 20000) {
		miss := rng.Intn(3) == 0
		cl.ClassifyObserve(a.cycle, a.line, a.pc, a.kind, a.start, a.closing)
		if n, m := owned.AccessCols(a.cycle, a.line, a.pc, a.kind, miss), shared.AccessCols(a.cycle, a.line, a.pc, a.kind, miss); n != m {
			t.Fatalf("access %+v: owned issued %d, shared %d", a, n, m)
		}
	}
	if o, s := owned.Finish(), shared.Finish(); o != s {
		t.Errorf("owned %+v, shared %+v", o, s)
	}
}

func BenchmarkEngineAccess(b *testing.B) {
	e := MustNewEngine(engCfg())
	for i := 0; i < b.N; i++ {
		e.AccessCols(uint64(i), uint64(i%100000), uint64(i%256), trace.Load, false)
	}
}
