package telemetry

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ForEach runs fn(0..n-1) with at most workers tasks at once and returns
// once every task has finished; workers <= 0 means runtime.GOMAXPROCS(0).
// The calling goroutine runs tasks too, and at most min(workers, n)-1
// helper goroutines claim indices from the same counter, so one task, or
// one worker, starts no goroutine. A failed task never cancels its peers:
// every task runs, and ForEach returns the error of the lowest-index
// failing task, the same at any worker count. A nil fn runs nothing and
// counts every task as failed. r's "pool" scope records the tasks
// submitted / completed / failed, the busy workers, and log2 histograms
// of task latency and of queue wait, from the call's start to the task's.
func ForEach(r *Registry, workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scope := r.Scope("pool")
	scope.Gauge("workers").Set(int64(workers))
	if n <= 0 {
		return nil
	}
	scope.Counter("tasks_submitted").Add(uint64(n))
	if fn == nil {
		scope.Counter("tasks_failed").Add(uint64(n))
		return errors.New("telemetry: nil task function")
	}
	f := &fanOut{
		fn: fn, n: n, errIdx: n, start: time.Now(),
		completed: scope.Counter("tasks_completed"), failed: scope.Counter("tasks_failed"),
		busy: scope.Gauge("workers_busy"), latency: scope.Histogram("task_ns"), queueWait: scope.Histogram("queue_wait_ns"),
	}
	helpers := min(workers, n) - 1
	f.wg.Add(helpers)
	for range helpers {
		go func() {
			defer f.wg.Done()
			f.run()
		}()
	}
	f.run()
	f.wg.Wait()
	return f.err
}

// fanOut is one ForEach call's shared state.
type fanOut struct {
	fn    func(i int) error
	n     int
	next  atomic.Int64 // the next unclaimed task index
	start time.Time
	wg    sync.WaitGroup // the helpers

	mu     sync.Mutex // guards errIdx and err
	errIdx int        // the lowest failing index so far; n while none failed
	err    error

	completed, failed  *Counter
	busy               *Gauge
	latency, queueWait *Histogram
}

// run claims and runs tasks until none is left.
func (f *fanOut) run() {
	for i := int(f.next.Add(1) - 1); i < f.n; i = int(f.next.Add(1) - 1) {
		start := time.Now()
		f.queueWait.Record(uint64(start.Sub(f.start).Nanoseconds()))
		f.busy.Add(1)
		err := f.fn(i)
		f.busy.Add(-1)
		f.latency.Record(uint64(time.Since(start).Nanoseconds()))
		f.completed.Add(1)
		if err != nil {
			f.failed.Add(1)
			f.mu.Lock()
			if i < f.errIdx {
				f.errIdx, f.err = i, err
			}
			f.mu.Unlock()
		}
	}
}
