package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

// TestSuiteAllConcurrentRace is the -race regression for the event-sink
// contract: several goroutines drive Suite.AllContext on the same suite
// at once, so every per-benchmark sink runs inside the bounded fan-out while
// other callers race on DataContext's cache. The sink state must stay
// single-goroutine-owned per cpu.RunStreamContext call.
func TestSuiteAllConcurrentRace(t *testing.T) {
	s := MustNew(WithScale(0.02))
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			all, err := s.AllContext(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if len(all) != len(workload.Names()) {
				t.Errorf("got %d benchmarks, want %d", len(all), len(workload.Names()))
			}
		}()
	}
	wg.Wait()
}

// TestSuiteAllReportsTelemetry checks the acceptance shape of a full-suite
// snapshot: per-benchmark simulation time, event counts, and disk-cache
// hit/miss counters all present after All().
func TestSuiteAllReportsTelemetry(t *testing.T) {
	dir := t.TempDir()
	s := MustNew(WithScale(0.02), WithCacheDir(dir))
	if _, err := s.AllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Second pass must be served from the disk cache.
	s2 := MustNew(WithScale(0.02), WithCacheDir(dir))
	if _, err := s2.AllContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := telemetry.Default().Snapshot()
	suite, ok := snap["suite"]
	if !ok {
		t.Fatal("snapshot missing suite scope")
	}
	for _, name := range workload.Names() {
		if _, ok := suite.Gauges["sim_ms/"+name]; !ok {
			t.Errorf("missing per-benchmark simulation time sim_ms/%s", name)
		}
		if _, ok := suite.Gauges["events/"+name]; !ok {
			t.Errorf("missing per-benchmark event count events/%s", name)
		}
	}
	dc, ok := snap["diskcache"]
	if !ok {
		t.Fatal("snapshot missing diskcache scope")
	}
	if dc.Counters["hits"] == 0 {
		t.Error("diskcache hits = 0 after cached re-run")
	}
	if dc.Counters["misses"] == 0 {
		t.Error("diskcache misses = 0 after cold run")
	}
	pool, ok := snap["pool"]
	if !ok {
		t.Fatal("snapshot missing pool scope")
	}
	if pool.Counters["tasks_completed"] < uint64(2*len(workload.Names())) {
		t.Errorf("pool tasks_completed = %d, want >= %d",
			pool.Counters["tasks_completed"], 2*len(workload.Names()))
	}

	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cpu:", "interval:", "prefetch:", "suite:", "diskcache:", "pool:"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text snapshot missing %q", want)
		}
	}
}
