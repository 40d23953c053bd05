package telemetry

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		r := NewRegistry()
		const n = 50
		var runs [n]atomic.Int64
		if err := ForEach(r, workers, n, func(i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: ForEach: %v", workers, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("workers=%d: task %d ran %d times, want once", workers, i, got)
			}
		}
		sc := r.Scope("pool")
		for name, want := range map[string]uint64{"tasks_submitted": n, "tasks_completed": n, "tasks_failed": 0} {
			if got := sc.Counter(name).Value(); got != want {
				t.Errorf("workers=%d: %s = %d, want %d", workers, name, got, want)
			}
		}
		for _, name := range []string{"task_ns", "queue_wait_ns"} {
			if got := sc.Histogram(name).Count(); got != n {
				t.Errorf("workers=%d: %s count = %d, want %d", workers, name, got, n)
			}
		}
		if got := sc.Gauge("workers_busy").Value(); got != 0 {
			t.Errorf("workers=%d: workers_busy after ForEach = %d, want 0", workers, got)
		}
		if got := sc.Gauge("workers").Value(); got != int64(workers) {
			t.Errorf("workers=%d: workers gauge = %d", workers, got)
		}
	}
}

// TestForEachDrainsAfterFailure: a failure never cancels its peers, so
// every task still runs and each failure is counted.
func TestForEachDrainsAfterFailure(t *testing.T) {
	r := NewRegistry()
	var ran atomic.Int64
	const n = 20
	err := ForEach(r, 2, n, func(i int) error {
		ran.Add(1)
		if i%5 == 3 {
			return fmt.Errorf("task %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("ForEach returned nil, want an error")
	}
	if ran.Load() != n {
		t.Errorf("ran %d tasks, want %d", ran.Load(), n)
	}
	sc := r.Scope("pool")
	if got := sc.Counter("tasks_completed").Value(); got != n {
		t.Errorf("tasks_completed = %d, want %d", got, n)
	}
	if got := sc.Counter("tasks_failed").Value(); got != 4 {
		t.Errorf("tasks_failed = %d, want 4", got)
	}
}

// TestForEachLowestIndexError: whatever the worker count and whichever
// failure happens first in time, ForEach returns the lowest-index one.
// Task 3 fails last here: it waits until every later failure is in.
func TestForEachLowestIndexError(t *testing.T) {
	sentinel := errors.New("task 3")
	for _, workers := range []int{1, 2, 4} {
		const n = 20
		var late atomic.Int64
		err := ForEach(NewRegistry(), workers, n, func(i int) error {
			switch {
			case i == 3:
				// At one worker the later tasks have not run yet; at
				// more, the other workers claim and fail all of them
				// while this one waits.
				for workers > 1 && late.Load() < n-11 {
					runtime.Gosched()
				}
				return sentinel
			case i > 10:
				late.Add(1)
				return fmt.Errorf("late error %d", i)
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: ForEach = %v, want the lowest-index error %v", workers, err, sentinel)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 3
	var cur, peak atomic.Int64
	err := ForEach(r, workers, 40, func(int) error {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		// Burn a little work so tasks overlap.
		s := 0
		for j := 0; j < 10000; j++ {
			s += j
		}
		_ = s
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > workers {
		t.Errorf("observed %d concurrent tasks, want <= %d (the caller counts)", peak.Load(), workers)
	}
	if got := r.Scope("pool").Gauge("workers").Value(); got != workers {
		t.Errorf("workers gauge = %d, want %d", got, workers)
	}
}

// TestForEachInlineStartsNoGoroutine: at one worker, or for one task,
// every task runs on the calling goroutine.
func TestForEachInlineStartsNoGoroutine(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 8}, {4, 1}} {
		before := runtime.NumGoroutine()
		err := ForEach(NewRegistry(), c.workers, c.n, func(int) error {
			// Another test's goroutine may still be exiting, so the
			// count may drop, but it must not rise.
			if got := runtime.NumGoroutine(); got > before {
				return fmt.Errorf("%d goroutines during the task, %d before", got, before)
			}
			return nil
		})
		if err != nil {
			t.Errorf("workers=%d n=%d: %v", c.workers, c.n, err)
		}
	}
}

func TestForEachDefaultWorkerCount(t *testing.T) {
	r := NewRegistry()
	if err := ForEach(r, 0, 1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := r.Scope("pool").Gauge("workers").Value(); got != int64(runtime.GOMAXPROCS(0)) {
		t.Errorf("workers gauge = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestForEachNilTask(t *testing.T) {
	r := NewRegistry()
	if err := ForEach(r, 1, 3, nil); err == nil {
		t.Error("nil task accepted without error")
	}
	if got := r.Scope("pool").Counter("tasks_failed").Value(); got != 3 {
		t.Errorf("tasks_failed = %d, want 3", got)
	}
}
