package cpu

import (
	"context"
	"testing"

	"leakbound/internal/sim/cache"
	"leakbound/internal/workload"
)

func TestBranchConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Branch = DefaultBranchConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("disabled branch config rejected: %v", err)
	}
	cfg.Branch.Enabled = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default enabled config rejected: %v", err)
	}
	cfg.Branch.MispredictPenalty = -1
	if cfg.Validate() == nil {
		t.Error("negative penalty accepted")
	}
	cfg.Branch = BranchConfig{Enabled: true, MispredictPenalty: 7, TableBits: 0}
	if cfg.Validate() == nil {
		t.Error("zero table bits accepted")
	}
	cfg.Branch.TableBits = 30
	if cfg.Validate() == nil {
		t.Error("absurd table bits accepted")
	}
}

func TestBranchDisabledMatchesBaseline(t *testing.T) {
	run := func(enabled bool) Result {
		cfg := DefaultConfig()
		cfg.Branch = DefaultBranchConfig()
		cfg.Branch.Enabled = enabled
		cfg.Branch.MispredictPenalty = 0 // even when enabled, zero penalty
		w := workload.MustNew("gzip", 0.02)
		res, err := runEvents(context.Background(), w, newHier(t), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, onZero := run(false), run(true)
	if off.Cycles != onZero.Cycles || off.Instructions != onZero.Instructions {
		t.Errorf("zero-penalty predictor changed timing: %d vs %d cycles", off.Cycles, onZero.Cycles)
	}
	if onZero.Branch.Branches == 0 {
		t.Error("enabled predictor observed no branches")
	}
	if off.Branch.Branches != 0 {
		t.Error("disabled predictor recorded branches")
	}
}

func TestBranchPenaltyStretchesTime(t *testing.T) {
	run := func(penalty int) Result {
		cfg := DefaultConfig()
		cfg.Branch = BranchConfig{Enabled: true, MispredictPenalty: penalty, TableBits: 12}
		w := workload.MustNew("gcc", 0.02)
		res, err := runEvents(context.Background(), w, newHier(t), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, taxed := run(0), run(7)
	if taxed.Cycles <= base.Cycles {
		t.Errorf("mispredict penalty did not stretch time: %d vs %d", base.Cycles, taxed.Cycles)
	}
	// The stretch must equal mispredicts * penalty exactly.
	want := base.Cycles + 7*taxed.Branch.Mispredicts
	if taxed.Cycles != want {
		t.Errorf("cycles = %d, want %d (base %d + 7*%d mispredicts)",
			taxed.Cycles, want, base.Cycles, taxed.Branch.Mispredicts)
	}
}

func TestBranchPredictorLearnsLoops(t *testing.T) {
	// A tight loop is maximally predictable: after warmup the bimodal
	// counters lock onto "taken" and the mispredict rate collapses.
	var ins []workload.Instr
	for iter := 0; iter < 500; iter++ {
		for i := 0; i < 8; i++ {
			ins = append(ins, workload.Instr{PC: 0x400000 + uint64(i)*4, Kind: workload.Op})
		}
	}
	cfg := DefaultConfig()
	cfg.Branch = BranchConfig{Enabled: true, MispredictPenalty: 7, TableBits: 12}
	h, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEvents(context.Background(), &scripted{name: "loop", ins: ins}, h, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.Branch.MispredictRate(); rate > 0.05 {
		t.Errorf("loop mispredict rate %.3f, want near 0", rate)
	}
}

func TestBranchPredictorStruggles(t *testing.T) {
	// Alternating taken/not-taken at the same PC defeats a bimodal
	// predictor; the rate must be far worse than on the pure loop.
	var ins []workload.Instr
	pc := uint64(0x400000)
	for iter := 0; iter < 500; iter++ {
		// 4 sequential (fall-through at width boundary = not taken), then
		// a jump (taken), from the same group-ending PC pattern.
		for i := 0; i < 8; i++ {
			ins = append(ins, workload.Instr{PC: pc + uint64(i)*4, Kind: workload.Op})
		}
		pc += 0x1000 // jump far away, alternating the ending behaviour
		if pc > 0x500000 {
			pc = 0x400000
		}
	}
	cfg := DefaultConfig()
	cfg.Branch = BranchConfig{Enabled: true, MispredictPenalty: 7, TableBits: 12}
	h, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEvents(context.Background(), &scripted{name: "jumpy", ins: ins}, h, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Branch.Branches == 0 {
		t.Fatal("no branches observed")
	}
}

func TestMispredictRateEmpty(t *testing.T) {
	var s BranchStats
	if s.MispredictRate() != 0 {
		t.Error("empty rate not 0")
	}
}

func TestBimodalSaturation(t *testing.T) {
	b := newBimodal(4)
	pc := uint64(0x1000)
	// Drive to strongly taken; then a single not-taken must still predict
	// taken next time (hysteresis).
	for i := 0; i < 4; i++ {
		b.predictAndUpdate(pc, true)
	}
	b.predictAndUpdate(pc, false) // mispredict, counter 3->2
	if mp := b.predictAndUpdate(pc, true); mp {
		t.Error("lost taken bias after a single not-taken (no hysteresis)")
	}
	// Drive to strongly not-taken and check the floor.
	for i := 0; i < 8; i++ {
		b.predictAndUpdate(pc, false)
	}
	if mp := b.predictAndUpdate(pc, false); mp {
		t.Error("not-taken not learned")
	}
}
