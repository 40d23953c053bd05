// Package cpu implements the cycle-level timing core that stands in for
// SimpleScalar's sim-alpha in the paper's methodology (Section 4.1): a
// 4-wide in-order front end fetching through the L1 instruction cache, with
// loads and stores going through the L1 data cache and a unified L2 behind
// both. Misses stall the pipeline for the hierarchy latency; hits are fully
// pipelined.
//
// The model's job is not absolute IPC fidelity — the limit study consumes
// only the *timed cache-line access stream* — so the core is deliberately
// simple: fetch groups of up to Width sequential instructions break at
// I-cache line boundaries and control-flow discontinuities, each group costs
// one cycle plus any miss stalls, and data accesses issue in program order
// within their group. Width is the one setting: there is no branch
// predictor and no run bound, so a run ends when the workload does or its
// context is cancelled.
//
// RunStreamContext is the one simulation entry point: it delivers that
// stream in reused struct-of-arrays batches (internal/sim/stream). A
// consumer that wants one event at a time reads Batch.Event(i).
package cpu

import (
	"context"
	"errors"
	"fmt"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
)

// Config controls the timing core.
type Config struct {
	// Width is the fetch width in instructions per cycle (the paper's
	// machine is 4-wide).
	Width int
}

// DefaultConfig returns the paper's 4-wide configuration.
func DefaultConfig() Config { return Config{Width: 4} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 {
		return fmt.Errorf("cpu: non-positive width %d", c.Width)
	}
	return nil
}

// Result summarizes one simulation run.
type Result struct {
	Cycles       uint64
	Instructions uint64
	FetchGroups  uint64
	L1I          cache.Stats
	L1D          cache.Stats
	L2           cache.Stats
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// ctxCheckMask throttles cancellation checks to every 4096 instructions —
// frequent enough that a multi-million-instruction run stops within
// microseconds of cancellation, rare enough that the hot loop never feels
// the context's mutex.
const ctxCheckMask = 1<<12 - 1

// RunStreamContext simulates the workload through the hierarchy,
// delivering every L1I, L1D and L2 access to sink in fixed-capacity
// struct-of-arrays batches: no event slice is ever materialized, and the
// one batch buffer is reused for the whole run. Events arrive in
// non-decreasing cycle order.
//
// sink runs synchronously on the calling goroutine, roughly once per
// cancellation-poll window, and never after RunStreamContext returns; the
// batch it receives is reused as soon as it returns, so a sink needs no
// synchronization for state owned by this one call. A sink error stops
// the simulation and is returned with the partial Result; the sink is not
// called again.
//
// The simulation polls ctx every few thousand instructions and, once the
// context is done, stops emitting, flushes its partial run totals to
// telemetry (so an aborted sweep still leaves an audit trail), and
// returns the partial Result together with ctx.Err().
//
//lint:hotpath entry
func RunStreamContext(ctx context.Context, w workload.Workload, hier *cache.Hierarchy, cfg Config, sink stream.Sink) (Result, error) {
	if sink == nil {
		return Result{}, errors.New("cpu: nil batch sink")
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if w == nil {
		return Result{}, errors.New("cpu: nil workload")
	}
	if hier == nil {
		return Result{}, errors.New("cpu: nil hierarchy")
	}
	hc := hier.Config()
	m := &machine{
		cfg: cfg, hier: hier, ctx: ctx,
		l1i: hier.L1I(), l1d: hier.L1D(), l2: hier.L2(),
		l1iHitLat: uint64(hc.L1I.HitLatency),
		l1dHitLat: uint64(hc.L1D.HitLatency),
		l2HitLat:  uint64(hc.L2.HitLatency),
		memLat:    uint64(hc.MemoryLatency),
		batch:     stream.NewBatch(stream.DefaultBatchEvents),
		batchSink: sink,
	}
	return m.run(w)
}

// run drives the instruction stream to completion (or cancellation) and
// assembles the Result.
func (m *machine) run(w workload.Workload) (Result, error) {
	w.Emit(m.consume)
	m.flushGroup()
	if m.batch.Len() > 0 && m.ctxErr == nil {
		m.flushBatch() // the final partial batch
	}
	res := Result{
		Cycles:       m.cycle,
		Instructions: m.instrs,
		FetchGroups:  m.groups,
		L1I:          m.hier.L1I().Stats(),
		L1D:          m.hier.L1D().Stats(),
		L2:           m.hier.L2().Stats(),
	}
	// Flush run totals to telemetry in one shot — the per-event path stays
	// free of shared-memory traffic. Cancelled runs flush too, tagged by
	// the runs_cancelled counter.
	sc := telemetry.Default().Scope("cpu")
	sc.Counter("runs").Add(1)
	sc.Counter("instructions").Add(res.Instructions)
	sc.Counter("cycles").Add(res.Cycles)
	sc.Counter("events_emitted").Add(m.events)
	sc.Histogram("run_cycles").Record(res.Cycles)
	if m.ctxErr != nil {
		sc.Counter("runs_cancelled").Add(1)
		return res, m.ctxErr
	}
	if m.sinkErr != nil {
		return res, m.sinkErr
	}
	return res, nil
}

// machine holds the in-flight fetch group and the cycle clock.
type machine struct {
	cfg    Config
	hier   *cache.Hierarchy
	ctx    context.Context
	ctxErr error

	// Direct cache references and hoisted latencies: flushGroup walks the
	// hierarchy itself (L1 probe, then L2 on a miss) rather than calling
	// through wrapper methods that repack the outcome per access.
	l1i, l1d, l2                           *cache.Cache
	l1iHitLat, l1dHitLat, l2HitLat, memLat uint64

	// emit appends columns to batch; flushBatch hands it to batchSink
	// whenever it fills, and once more for the final partial batch after
	// the last fetch group retires.
	batch     *stream.Batch
	batchSink stream.Sink
	sinkErr   error

	cycle  uint64
	instrs uint64
	groups uint64
	events uint64

	group    []workload.Instr
	stopping bool
}

// consume receives one instruction from the workload generator and returns
// false once the run is stopping (cancellation or a sink error).
func (m *machine) consume(in workload.Instr) bool {
	if m.stopping {
		return false
	}
	if m.instrs&ctxCheckMask == 0 {
		//lint:ignore hotalloc cancellation poll: one interface dispatch per ctxCheckMask-sized window, not per event
		if err := m.ctx.Err(); err != nil {
			m.ctxErr = err
			m.stopping = true
			return false
		}
	}
	if len(m.group) > 0 {
		last := m.group[len(m.group)-1]
		sameLine := (in.PC >> 6) == (m.group[0].PC >> 6)
		sequential := in.PC == last.PC+4
		if len(m.group) >= m.cfg.Width || !sequential || !sameLine {
			m.flushGroup()
		}
	}
	//lint:ignore hotalloc group buffer reaches fetch-width capacity within the first few groups and is reused via m.group[:0]
	m.group = append(m.group, in)
	m.instrs++
	return true
}

// flushGroup retires the pending fetch group, advancing the clock. It
// walks the hierarchy directly — L1 probe, then L2 on a miss — with the
// same state transitions and timing as Hierarchy.Fetch/Data, but without
// a wrapper call and outcome-struct copy per access.
func (m *machine) flushGroup() {
	if len(m.group) == 0 {
		return
	}
	m.groups++
	pc := m.group[0].PC
	fetchCycle := m.cycle

	f1, hit1 := m.l1i.AccessLine(pc)
	m.emit(fetchCycle, pc>>6, pc, f1, trace.L1I, trace.Fetch, !hit1)
	if hit1 {
		m.cycle++ // fetch fully pipelined
	} else {
		f2, hit2 := m.l2.AccessLine(pc)
		m.emit(fetchCycle, pc>>6, pc, f2, trace.L2, trace.Fetch, !hit2)
		lat := m.l1iHitLat + m.l2HitLat
		if !hit2 {
			lat += m.memLat
		}
		m.cycle += lat // stall for the refill
	}

	for _, in := range m.group {
		if in.Kind == workload.Op {
			continue
		}
		kind := trace.Load
		if in.Kind == workload.Store {
			kind = trace.Store
		}
		df1, dhit1 := m.l1d.AccessLine(in.Addr)
		m.emit(m.cycle, in.Addr>>6, in.PC, df1, trace.L1D, kind, !dhit1)
		if !dhit1 {
			df2, dhit2 := m.l2.AccessLine(in.Addr)
			m.emit(m.cycle, in.Addr>>6, in.PC, df2, trace.L2, kind, !dhit2)
			// Stall for the portion beyond the pipelined L1 hit latency.
			lat := m.l2HitLat
			if !dhit2 {
				lat += m.memLat
			}
			m.cycle += lat
		}
	}
	m.group = m.group[:0]
}

// emit appends one event to the current batch by columns, flushing it
// to the sink when full.
func (m *machine) emit(cycle, lineAddr, pc uint64, frame uint32, cacheID trace.CacheID, kind trace.Kind, miss bool) {
	m.events++
	//lint:ignore hotalloc batch columns are fixed-capacity and Full() flushes before any append could grow them
	m.batch.Append(cycle, lineAddr, pc, frame, cacheID, kind, miss)
	if m.batch.Full() {
		m.flushBatch()
	}
}

// flushBatch hands the current batch to batchSink and resets it for
// reuse. After a sink error the simulation stops and the batch is dropped.
func (m *machine) flushBatch() {
	if m.sinkErr == nil {
		//lint:ignore hotalloc one indirect flush per full batch
		if err := m.batchSink(m.batch); err != nil {
			m.sinkErr = err
			m.stopping = true
		}
	}
	m.batch.Reset()
}

// RunToStreamContext collects all events for one cache into an in-memory
// trace.Stream; intended for tests and small tools, not full-length runs.
// Cancellation behaves as in RunStreamContext.
func RunToStreamContext(ctx context.Context, w workload.Workload, hier *cache.Hierarchy, cfg Config, id trace.CacheID) (*trace.Stream, Result, error) {
	s := &trace.Stream{}
	res, err := RunStreamContext(ctx, w, hier, cfg, func(b *stream.Batch) error {
		for i, c := range b.Caches {
			if c == id {
				if err := s.Append(b.Event(i)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, Result{}, err
	}
	if res.Cycles > s.TotalCycles {
		s.TotalCycles = res.Cycles
	}
	c := hier.CacheByID(id)
	if c != nil {
		s.NumFrames = uint32(c.Config().NumLines())
	}
	return s, res, nil
}
