package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

// TestRunContextCancelled verifies an already-cancelled context stops the
// run almost immediately, returns ctx.Err(), and never calls the sink
// after RunStreamContext returns.
func TestRunContextCancelled(t *testing.T) {
	w := workload.MustNew("gzip", 0.2)
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var events uint64
	res, err := runEvents(ctx, w, hier, DefaultConfig(), func(e trace.Event) { events++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The pre-cancelled context is observed on the very first check.
	if res.Instructions > ctxCheckMask+1 {
		t.Fatalf("ran %d instructions after cancellation (check mask %d)", res.Instructions, ctxCheckMask)
	}
	if events > 0 && res.Cycles == 0 {
		t.Fatalf("sink saw %d events but result reports no cycles", events)
	}
}

// TestRunContextDeadline verifies a deadline mid-run stops promptly with
// DeadlineExceeded and a partial result.
func TestRunContextDeadline(t *testing.T) {
	w := workload.MustNew("gcc", 1.0)
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := runEvents(ctx, w, hier, DefaultConfig(), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt stop", elapsed)
	}
	// A full gcc run is millions of instructions; a 1ms budget must have
	// stopped it early, and the partial result must still be coherent.
	full, err := runEvents(context.Background(), workload.MustNew("gcc", 1.0), mustHierarchy(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions >= full.Instructions {
		t.Fatalf("deadline run executed %d instructions, full run %d — not cancelled early",
			res.Instructions, full.Instructions)
	}
}

// TestRunStreamNilSink verifies a nil batch sink is rejected before any
// simulation work.
func TestRunStreamNilSink(t *testing.T) {
	res, err := RunStreamContext(context.Background(), workload.MustNew("gzip", 0.01), mustHierarchy(t), DefaultConfig(), nil)
	if err == nil {
		t.Fatal("nil sink accepted")
	}
	if res != (Result{}) {
		t.Fatalf("nil sink ran a simulation: %+v", res)
	}
}

// TestRunStreamSinkErrorStops verifies a sink error stops the simulation:
// the call returns that error with the partial Result, and the sink is
// never called again.
func TestRunStreamSinkErrorStops(t *testing.T) {
	boom := errors.New("sink full")
	calls := 0
	res, err := RunStreamContext(context.Background(), workload.MustNew("gcc", 1.0), mustHierarchy(t), DefaultConfig(), func(b *stream.Batch) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the sink's error", err)
	}
	if calls != 2 {
		t.Fatalf("sink called %d times, want 2 (never again after its error)", calls)
	}
	full, err := runEvents(context.Background(), workload.MustNew("gcc", 1.0), mustHierarchy(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.Instructions >= full.Instructions {
		t.Fatalf("stopped run executed %d instructions, full run %d — want a partial result",
			res.Instructions, full.Instructions)
	}
}

func mustHierarchy(t *testing.T) *cache.Hierarchy {
	t.Helper()
	h, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// fanOut returns n targets on fresh paper hierarchies, each with a sink
// that counts its calls in calls[k] and returns errs[k] on call stopAt
// (never, if stopAt is 0).
func fanOut(t *testing.T, n int, calls []int, stopAt int, errs []error) []Target {
	t.Helper()
	targets := make([]Target, n)
	for k := range targets {
		targets[k] = Target{Hier: mustHierarchy(t), Sink: func(*stream.Batch) error {
			calls[k]++
			if calls[k] == stopAt {
				return errs[k]
			}
			return nil
		}}
	}
	return targets
}

// TestRunManyContextCancelled verifies a cancelled fan-out returns
// ctx.Err() and counts every machine in cpu/runs_cancelled.
func TestRunManyContextCancelled(t *testing.T) {
	cancelled := telemetry.Default().Scope("cpu").Counter("runs_cancelled")
	before := cancelled.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 3
	calls := make([]int, n)
	res, err := RunManyContext(ctx, workload.MustNew("gzip", 0.2), DefaultConfig(), fanOut(t, n, calls, 0, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := cancelled.Value() - before; got != n {
		t.Errorf("runs_cancelled rose by %d, want %d (one per machine)", got, n)
	}
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for k, r := range res {
		if r.Instructions > ctxCheckMask+1 {
			t.Errorf("machine %d ran %d instructions after cancellation", k, r.Instructions)
		}
		if calls[k] != 0 {
			t.Errorf("machine %d: sink called %d times after cancellation", k, calls[k])
		}
	}
}

// TestRunManySinkErrorStopsAll verifies one machine's sink error stops
// every machine: the error is returned, no sink is called again, and
// every machine reports a partial run.
func TestRunManySinkErrorStopsAll(t *testing.T) {
	boom := errors.New("sink full")
	const n = 3
	calls := make([]int, n)
	errs := []error{nil, boom, nil}
	res, err := RunManyContext(context.Background(), workload.MustNew("gcc", 1.0), DefaultConfig(), fanOut(t, n, calls, 2, errs))
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the sink's error", err)
	}
	if calls[1] != 2 {
		t.Errorf("failing sink called %d times, want 2 (never again after its error)", calls[1])
	}
	// The machines are identical, so machine 0 filled its second batch
	// first, and machine 2 never got there.
	if calls[0] != 2 || calls[2] != 1 {
		t.Errorf("sink calls %v, want [2 2 1]", calls)
	}
	full, err := runEvents(context.Background(), workload.MustNew("gcc", 1.0), mustHierarchy(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range res {
		if r.Instructions == 0 || r.Instructions >= full.Instructions {
			t.Errorf("machine %d executed %d instructions, full run %d — want a partial result",
				k, r.Instructions, full.Instructions)
		}
	}
}
