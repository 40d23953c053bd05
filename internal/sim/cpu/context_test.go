package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
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
