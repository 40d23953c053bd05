package telemetry

// Pool is the bounded worker-pool scheduler for parallel simulation: a
// fixed number of workers (GOMAXPROCS by default) pull submitted tasks
// from a channel, so fanning out over an arbitrary number of benchmarks
// never spawns more than `workers` simulation goroutines at once. The
// pool reports into the "pool" scope of a registry: tasks submitted /
// completed / failed, the number of busy workers, and log2 histograms of
// task latency and queue wait.

import (
	"errors"
	"runtime"
	"sync"
	"time"
)

// Pool runs tasks on a fixed set of workers. Create with NewPoolIn, submit
// with Go, then call Wait exactly once; the pool is not reusable after
// Wait.
type Pool struct {
	tasks chan poolTask
	wg    sync.WaitGroup

	errOnce sync.Once
	err     error

	submitted *Counter
	completed *Counter
	failed    *Counter
	busy      *Gauge
	latency   *Histogram
	queueWait *Histogram
}

type poolTask struct {
	fn       func() error
	enqueued time.Time
}

// NewPoolIn starts a pool with the given number of workers, reporting into
// registry r; workers <= 0 means runtime.GOMAXPROCS(0).
func NewPoolIn(r *Registry, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scope := r.Scope("pool")
	p := &Pool{
		tasks:     make(chan poolTask),
		submitted: scope.Counter("tasks_submitted"),
		completed: scope.Counter("tasks_completed"),
		failed:    scope.Counter("tasks_failed"),
		busy:      scope.Gauge("workers_busy"),
		latency:   scope.Histogram("task_ns"),
		queueWait: scope.Histogram("queue_wait_ns"),
	}
	scope.Gauge("workers").Set(int64(workers))
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Go submits one task. It blocks until a worker is free to accept it —
// that back-pressure is the bound — and must not be called after Wait.
// A nil task is counted as failed without being run.
func (p *Pool) Go(task func() error) {
	p.submitted.Add(1)
	if task == nil {
		p.failed.Add(1)
		p.errOnce.Do(func() { p.err = errors.New("telemetry: nil task submitted to pool") })
		return
	}
	p.tasks <- poolTask{fn: task, enqueued: time.Now()}
}

// Wait closes the pool, runs every submitted task to completion (a failed
// task never cancels its peers — the pool always drains cleanly), and
// returns the first error any task produced.
func (p *Pool) Wait() error {
	close(p.tasks)
	p.wg.Wait()
	return p.err
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		start := time.Now()
		p.queueWait.Record(uint64(start.Sub(t.enqueued).Nanoseconds()))
		p.busy.Add(1)
		err := t.fn()
		p.busy.Add(-1)
		p.latency.Record(uint64(time.Since(start).Nanoseconds()))
		p.completed.Add(1)
		if err != nil {
			p.failed.Add(1)
			p.errOnce.Do(func() { p.err = err })
		}
	}
}
