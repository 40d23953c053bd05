package cpu

import (
	"context"
	"testing"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

// scripted is a test workload replaying a fixed instruction slice.
type scripted struct {
	name string
	ins  []workload.Instr
}

func (s *scripted) Name() string        { return s.name }
func (s *scripted) Description() string { return "scripted test workload" }
func (s *scripted) Emit(yield func(workload.Instr) bool) {
	for _, in := range s.ins {
		if !yield(in) {
			return
		}
	}
}

func straightLine(base uint64, n int) []workload.Instr {
	ins := make([]workload.Instr, n)
	for i := range ins {
		ins[i] = workload.Instr{PC: base + uint64(i)*4, Kind: workload.Op}
	}
	return ins
}

// runEvents is RunStreamContext with one callback per event, in stream
// order; a nil fn collects statistics only.
func runEvents(ctx context.Context, w workload.Workload, h *cache.Hierarchy, cfg Config, fn func(trace.Event)) (Result, error) {
	return RunStreamContext(ctx, w, h, cfg, func(b *stream.Batch) error {
		for i := 0; fn != nil && i < b.Len(); i++ {
			fn(b.Event(i))
		}
		return nil
	})
}

func newHier(t testing.TB) *cache.Hierarchy {
	t.Helper()
	h, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Width: 0}).Validate(); err == nil {
		t.Error("zero width accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestRunNilArgs(t *testing.T) {
	h := newHier(t)
	if _, err := runEvents(context.Background(), nil, h, DefaultConfig(), nil); err == nil {
		t.Error("nil workload accepted")
	}
	w := &scripted{name: "w"}
	if _, err := runEvents(context.Background(), w, nil, DefaultConfig(), nil); err == nil {
		t.Error("nil hierarchy accepted")
	}
	if _, err := runEvents(context.Background(), w, h, Config{}, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFetchGrouping(t *testing.T) {
	// 8 sequential ops in one 64B line -> 2 groups of 4 (width limit).
	w := &scripted{name: "seq", ins: straightLine(0x400000, 8)}
	res, err := runEvents(context.Background(), w, newHier(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 8 {
		t.Errorf("instructions = %d", res.Instructions)
	}
	if res.FetchGroups != 2 {
		t.Errorf("groups = %d, want 2", res.FetchGroups)
	}
	if res.L1I.Accesses != 2 {
		t.Errorf("L1I accesses = %d, want 2", res.L1I.Accesses)
	}
	// First group misses (cold), costs 108; second hits, costs 1.
	if res.Cycles != 108+1 {
		t.Errorf("cycles = %d, want 109", res.Cycles)
	}
}

func TestGroupBreaksAtLineBoundary(t *testing.T) {
	// 4 ops straddling a 64B line boundary: 0x40003c is the last slot of a
	// line, so the group must split 1 + 3.
	w := &scripted{name: "straddle", ins: straightLine(0x40003c, 4)}
	res, err := runEvents(context.Background(), w, newHier(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FetchGroups != 2 {
		t.Errorf("groups = %d, want 2 (line-boundary split)", res.FetchGroups)
	}
	if res.L1I.Misses != 2 {
		t.Errorf("L1I misses = %d, want 2 (two distinct lines)", res.L1I.Misses)
	}
}

func TestGroupBreaksAtDiscontinuity(t *testing.T) {
	// Two ops at the same line but non-sequential PCs -> separate groups
	// (taken branch).
	ins := []workload.Instr{
		{PC: 0x400000, Kind: workload.Op},
		{PC: 0x400020, Kind: workload.Op},
	}
	res, err := runEvents(context.Background(), &scripted{name: "br", ins: ins}, newHier(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FetchGroups != 2 {
		t.Errorf("groups = %d, want 2", res.FetchGroups)
	}
}

func TestDataStallOnlyOnMiss(t *testing.T) {
	h := newHier(t)
	ins := []workload.Instr{
		{PC: 0x400000, Kind: workload.Load, Addr: 0x10000000},
		{PC: 0x400004, Kind: workload.Load, Addr: 0x10000000},
	}
	res, err := runEvents(context.Background(), &scripted{name: "ld", ins: ins}, h, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// One group: cold I-miss 108 + cold D-miss stall (110-3) = 215; the
	// second load hits and is pipelined (no extra cycles).
	if res.Cycles != 108+107 {
		t.Errorf("cycles = %d, want 215", res.Cycles)
	}
	if res.L1D.Accesses != 2 || res.L1D.Misses != 1 {
		t.Errorf("L1D stats: %+v", res.L1D)
	}
}

func TestEventStreamShape(t *testing.T) {
	ins := []workload.Instr{
		{PC: 0x400000, Kind: workload.Op},
		{PC: 0x400004, Kind: workload.Load, Addr: 0x10000040},
		{PC: 0x400008, Kind: workload.Store, Addr: 0x10000080},
	}
	var events []trace.Event
	_, err := runEvents(context.Background(), &scripted{name: "ev", ins: ins}, newHier(t), DefaultConfig(), func(e trace.Event) {
		events = append(events, e)
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 L1I + 1 L2 (I miss) + 2 L1D + 2 L2 (D misses) = 6 events.
	if len(events) != 6 {
		t.Fatalf("events = %d, want 6: %+v", len(events), events)
	}
	var prev uint64
	counts := map[trace.CacheID]int{}
	for _, e := range events {
		if e.Cycle < prev {
			t.Errorf("events out of order: %d after %d", e.Cycle, prev)
		}
		prev = e.Cycle
		counts[e.Cache]++
	}
	if counts[trace.L1I] != 1 || counts[trace.L1D] != 2 || counts[trace.L2] != 3 {
		t.Errorf("event mix: %v", counts)
	}
	// The store event must carry the store kind and its PC.
	found := false
	for _, e := range events {
		if e.Cache == trace.L1D && e.Kind == trace.Store {
			found = true
			if e.PC != 0x400008 {
				t.Errorf("store PC = %#x", e.PC)
			}
			if e.LineAddr != 0x10000080>>6 {
				t.Errorf("store line = %#x", e.LineAddr)
			}
		}
	}
	if !found {
		t.Error("no store event")
	}
}

func TestIPCSane(t *testing.T) {
	w := workload.MustNew("gzip", 0.02)
	res, err := runEvents(context.Background(), w, newHier(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ipc := res.IPC()
	// Short runs are dominated by cold startup misses, so the floor is low.
	if ipc < 0.2 || ipc > 4 {
		t.Errorf("IPC = %.2f, want within (0.2, 4) for a 4-wide core", ipc)
	}
	if (Result{}).IPC() != 0 {
		t.Error("IPC of empty result not 0")
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() Result {
		w := workload.MustNew("vortex", 0.01)
		res, err := runEvents(context.Background(), w, newHier(t), DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic results:\n%+v\n%+v", a, b)
	}
}

func TestFrameWithinRange(t *testing.T) {
	w := workload.MustNew("mesa", 0.02)
	h := newHier(t)
	bad := 0
	_, err := runEvents(context.Background(), w, h, DefaultConfig(), func(e trace.Event) {
		c := h.CacheByID(e.Cache)
		if int(e.Frame) >= c.Config().NumLines() {
			bad++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Errorf("%d events with out-of-range frames", bad)
	}
}

func BenchmarkRunGzip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := cache.NewHierarchy(cache.AlphaLike())
		if err != nil {
			b.Fatal(err)
		}
		w := workload.MustNew("gzip", 0.05)
		if _, err := RunStreamContext(context.Background(), w, h, DefaultConfig(), func(*stream.Batch) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
