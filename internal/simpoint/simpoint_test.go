package simpoint

import (
	"context"
	"math"
	"testing"

	"leakbound/internal/workload"
)

func TestBBVCollectorValidation(t *testing.T) {
	if _, err := NewBBVCollector(0, 6); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewBBVCollector(100, 25); err == nil {
		t.Error("absurd shift accepted")
	}
}

func TestBBVWindows(t *testing.T) {
	c, err := NewBBVCollector(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 8 instructions: 4 in region 0 (PC < 64), 4 in region 1.
	for i := 0; i < 4; i++ {
		c.Add(workload.Instr{PC: uint64(i) * 4})
	}
	for i := 0; i < 4; i++ {
		c.Add(workload.Instr{PC: 64 + uint64(i)*4})
	}
	ws := c.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	if ws[0][0] != 1.0 {
		t.Errorf("window 0 region 0 share = %g, want 1", ws[0][0])
	}
	if ws[1][1] != 1.0 {
		t.Errorf("window 1 region 1 share = %g, want 1", ws[1][1])
	}
}

func TestBBVPartialWindow(t *testing.T) {
	c, _ := NewBBVCollector(10, 6)
	for i := 0; i < 7; i++ { // 7 >= 10/2: partial window kept
		c.Add(workload.Instr{PC: uint64(i) * 4})
	}
	if len(c.Windows()) != 1 {
		t.Errorf("partial window >= half size not kept")
	}
	c2, _ := NewBBVCollector(10, 6)
	for i := 0; i < 3; i++ { // 3 < 5: dropped
		c2.Add(workload.Instr{PC: uint64(i) * 4})
	}
	if len(c2.Windows()) != 0 {
		t.Errorf("tiny partial window kept")
	}
}

func TestBBVNormalized(t *testing.T) {
	c, _ := NewBBVCollector(8, 6)
	for i := 0; i < 8; i++ {
		c.Add(workload.Instr{PC: uint64(i%2) * 64})
	}
	w := c.Windows()[0]
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("BBV sums to %g", sum)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil, 2, 10); err == nil {
		t.Error("empty windows accepted")
	}
	w := []map[uint32]float64{{0: 1}}
	if _, err := Analyze(w, 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Analyze(w, 1, 0); err == nil {
		t.Error("maxIter=0 accepted")
	}
}

func TestAnalyzeTwoObviousPhases(t *testing.T) {
	// 10 windows in region A, 5 in region B: two clean phases with weights
	// 2/3 and 1/3.
	var windows []map[uint32]float64
	for i := 0; i < 10; i++ {
		windows = append(windows, map[uint32]float64{1: 1})
	}
	for i := 0; i < 5; i++ {
		windows = append(windows, map[uint32]float64{99: 1})
	}
	res, err := Analyze(windows, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(res.Phases))
	}
	if math.Abs(res.Phases[0].Weight-2.0/3) > 1e-9 {
		t.Errorf("phase 0 weight = %g, want 2/3", res.Phases[0].Weight)
	}
	if res.Phases[0].Size != 10 || res.Phases[1].Size != 5 {
		t.Errorf("sizes = %d/%d", res.Phases[0].Size, res.Phases[1].Size)
	}
	// Representative of the big phase must be an A-window.
	rep := res.Phases[0].Representative
	if _, ok := windows[rep][1]; !ok {
		t.Errorf("representative %d not in phase A", rep)
	}
	// Assignment must be consistent: all A-windows in phase 0.
	for i := 0; i < 10; i++ {
		if res.Assignment[i] != 0 {
			t.Errorf("window %d assigned to %d", i, res.Assignment[i])
		}
	}
	// Weights sum to 1.
	var sum float64
	for _, p := range res.Phases {
		sum += p.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
}

func TestAnalyzeKLargerThanWindows(t *testing.T) {
	windows := []map[uint32]float64{{1: 1}, {2: 1}}
	res, err := Analyze(windows, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) > 2 {
		t.Errorf("more phases (%d) than windows", len(res.Phases))
	}
}

func TestDistSymmetric(t *testing.T) {
	a := toVec(map[uint32]float64{1: 0.5, 2: 0.5})
	b := toVec(map[uint32]float64{2: 0.5, 3: 0.5})
	if d1, d2 := dist(a, b), dist(b, a); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("asymmetric distance: %g vs %g", d1, d2)
	}
	if dist(a, a) != 0 {
		t.Error("self distance not 0")
	}
	// Disjoint supports: distance is the sum of both squared norms.
	c := toVec(map[uint32]float64{9: 1})
	if got := dist(a, c); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("disjoint distance = %g, want 1.5", got)
	}
}

func TestPickSimPointsOnBenchmarks(t *testing.T) {
	// Phase-structured benchmarks must yield more than one phase; the
	// weights must sum to 1.
	for _, name := range []string{"gcc", "mesa"} {
		w := workload.MustNew(name, 0.05)
		res, err := PickSimPointsContext(context.Background(), w, 50000, 6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Phases) < 2 {
			t.Errorf("%s: only %d phase(s) found", name, len(res.Phases))
		}
		var sum float64
		for _, p := range res.Phases {
			sum += p.Weight
			if p.Representative < 0 || p.Representative >= len(res.Assignment) {
				t.Errorf("%s: representative %d out of range", name, p.Representative)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: weights sum to %g", name, sum)
		}
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	w := workload.MustNew("vortex", 0.02)
	r1, err := PickSimPointsContext(context.Background(), w, 20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := PickSimPointsContext(context.Background(), workload.MustNew("vortex", 0.02), 20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Phases) != len(r2.Phases) {
		t.Fatal("non-deterministic phase count")
	}
	for i := range r1.Phases {
		if r1.Phases[i] != r2.Phases[i] {
			t.Fatalf("phase %d differs: %+v vs %+v", i, r1.Phases[i], r2.Phases[i])
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	w := workload.MustNew("gcc", 0.05)
	col, _ := NewBBVCollector(50000, 6)
	w.Emit(func(in workload.Instr) bool { col.Add(in); return true })
	windows := col.Windows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(windows, 6, 50); err != nil {
			b.Fatal(err)
		}
	}
}
