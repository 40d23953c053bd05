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
// Instructions retire as they arrive. Nothing in a group's fetch-then-data
// sequence depends on a later instruction, so the core decides whether
// each instruction opens a new group, performs the group's fetch when it
// does, and then the instruction's own data access; no group is buffered.
// The group decision depends only on the stream and the width, never on a
// cache, which is what lets one stream drive several machines.
//
// RunManyContext is the simulation core: it emits a workload once and
// retires each instruction on N (hierarchy, sink) targets, each with its
// own clock, caches and batch. RunStreamContext is its one-target case.
// Both deliver the stream in reused struct-of-arrays batches
// (internal/sim/stream); a consumer that wants one event at a time reads
// Batch.Event(i).
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

// Target is one machine of a RunManyContext fan-out: the hierarchy it
// simulates and the sink its events go to.
type Target struct {
	Hier *cache.Hierarchy
	Sink stream.Sink
}

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
// It is RunManyContext with one target.
//
//lint:hotpath entry
func RunStreamContext(ctx context.Context, w workload.Workload, hier *cache.Hierarchy, cfg Config, sink stream.Sink) (Result, error) {
	res, err := RunManyContext(ctx, w, cfg, []Target{{Hier: hier, Sink: sink}})
	if len(res) == 0 {
		return Result{}, err
	}
	return res[0], err
}

// RunManyContext simulates one instruction stream on several machines at
// once: the workload is emitted once, and each instruction retires on
// every target's hierarchy, in target order, before the next is emitted.
// Each machine has its own clock, caches and batch, so target k's events
// and Result are exactly those of RunStreamContext on targets[k] alone;
// only fetch-group formation, which depends on the stream and the width
// and never on a cache, is shared. The hierarchies must be distinct.
//
// Sinks, cancellation and telemetry behave as in RunStreamContext, per
// machine: each target's sink sees only its own events, and each machine
// flushes its own run totals. A sink error on any machine stops every
// machine (no sink is called again) and is returned with the partial
// Results.
//
//lint:hotpath entry
func RunManyContext(ctx context.Context, w workload.Workload, cfg Config, targets []Target) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w == nil {
		return nil, errors.New("cpu: nil workload")
	}
	if len(targets) == 0 {
		return nil, errors.New("cpu: no targets")
	}
	c := &core{ctx: ctx, front: frontEnd{width: cfg.Width}, machines: make([]machine, len(targets))}
	for k, t := range targets {
		if t.Sink == nil {
			return nil, errors.New("cpu: nil batch sink")
		}
		if t.Hier == nil {
			return nil, errors.New("cpu: nil hierarchy")
		}
		for _, u := range targets[:k] {
			if u.Hier == t.Hier {
				return nil, fmt.Errorf("cpu: target %d shares its hierarchy with an earlier target", k)
			}
		}
		hc := t.Hier.Config()
		c.machines[k] = machine{
			core: c,
			l1i:  t.Hier.L1I(), l1d: t.Hier.L1D(), l2: t.Hier.L2(),
			l1iHitLat: uint64(hc.L1I.HitLatency),
			l2HitLat:  uint64(hc.L2.HitLatency),
			memLat:    uint64(hc.MemoryLatency),
			sink:      t.Sink,
		}
		//lint:ignore hotalloc per-target setup: one batch per machine per run, reused for every event
		c.machines[k].batch = stream.NewBatch(stream.DefaultBatchEvents)
	}
	return c.run(w)
}

// core drives one instruction stream through its front end and retires
// each instruction on every machine.
type core struct {
	ctx      context.Context
	ctxErr   error
	sinkErr  error // the first sink error of any machine
	stopping bool

	front    frontEnd
	machines []machine
}

// frontEnd forms fetch groups. Grouping depends only on the instruction
// stream and the width, so one front end serves every machine.
type frontEnd struct {
	width  int
	size   int    // instructions in the current group
	lastPC uint64 // PC of the group's latest instruction
	line   uint64 // 64-byte I-line of the group's first instruction

	instrs uint64
	groups uint64
}

// startsGroup reports whether the instruction at pc opens a new fetch
// group: the first instruction does, and so does any that would make the
// group wider than Width, is not the sequential successor of the
// previous one, or lies on another I-line.
func (f *frontEnd) startsGroup(pc uint64) bool {
	if f.size > 0 && f.size < f.width && pc == f.lastPC+4 && pc>>6 == f.line {
		f.size++
		f.lastPC = pc
		return false
	}
	f.size, f.lastPC, f.line = 1, pc, pc>>6
	f.groups++
	return true
}

// run drives the instruction stream to completion (or to cancellation or
// a sink error) and assembles one Result per machine.
func (c *core) run(w workload.Workload) ([]Result, error) {
	// consume receives one instruction from the workload generator,
	// decides its fetch group once, and retires it on every machine. It
	// returns false once the run is stopping (cancellation or a sink
	// error). It is a closure rather than a method value so that each
	// instruction costs one indirect call, not a call through a wrapper.
	consume := func(in workload.Instr) bool {
		if c.stopping {
			return false
		}
		if c.front.instrs&ctxCheckMask == 0 {
			//lint:ignore hotalloc cancellation poll: one interface dispatch per ctxCheckMask-sized window, not per event
			if err := c.ctx.Err(); err != nil {
				c.ctxErr = err
				c.stopping = true
				return false
			}
		}
		c.front.instrs++
		newGroup := c.front.startsGroup(in.PC)
		if !newGroup && in.Kind == workload.Op {
			return true // no fetch and no data access: nothing to retire
		}
		for k := range c.machines {
			c.machines[k].retire(in, newGroup)
		}
		return true
	}
	w.Emit(consume)
	for k := range c.machines {
		if m := &c.machines[k]; m.batch.Len() > 0 {
			m.flushBatch() // the final partial batch
		}
	}
	// Flush run totals to telemetry in one shot per machine — the
	// per-event path stays free of shared-memory traffic. Cancelled runs
	// flush too, tagged by the runs_cancelled counter.
	sc := telemetry.Default().Scope("cpu")
	runs, instrs, cycles, events := sc.Counter("runs"), sc.Counter("instructions"), sc.Counter("cycles"), sc.Counter("events_emitted")
	runCycles := sc.Histogram("run_cycles")
	results := make([]Result, len(c.machines))
	for k := range c.machines {
		m := &c.machines[k]
		res := Result{
			Cycles:       m.cycle,
			Instructions: c.front.instrs,
			FetchGroups:  c.front.groups,
			L1I:          m.l1i.Stats(),
			L1D:          m.l1d.Stats(),
			L2:           m.l2.Stats(),
		}
		results[k] = res
		runs.Add(1)
		instrs.Add(res.Instructions)
		cycles.Add(res.Cycles)
		events.Add(m.events)
		runCycles.Record(res.Cycles)
	}
	if c.ctxErr != nil {
		sc.Counter("runs_cancelled").Add(uint64(len(c.machines)))
		return results, c.ctxErr
	}
	return results, c.sinkErr
}

// machine is one target's clock, caches and event batch.
type machine struct {
	core *core

	// Direct cache references and hoisted latencies: retire walks the
	// hierarchy itself (L1 probe, then L2 on a miss) rather than calling
	// through wrapper methods that repack the outcome per access.
	l1i, l1d, l2                *cache.Cache
	l1iHitLat, l2HitLat, memLat uint64

	// retire appends columns to batch; flushBatch hands it to sink
	// whenever it nears capacity, and once more for the final partial
	// batch after the last instruction retires.
	batch *stream.Batch
	sink  stream.Sink

	cycle  uint64
	events uint64 // events in batches already flushed or dropped
}

// retire performs one instruction's accesses, advancing the clock: the
// group's fetch first when the instruction opens a fetch group, then its
// data access for a load or store. It walks the hierarchy directly — L1
// probe, then L2 on a miss — with the same state transitions and timing
// as Hierarchy.Fetch/Data, but without a wrapper call and outcome-struct
// copy per access. Nothing here depends on a later instruction, so
// retiring as the instruction arrives is the same as buffering its group.
func (m *machine) retire(in workload.Instr, newGroup bool) {
	b := m.batch
	if newGroup {
		pc := in.PC
		fetchCycle := m.cycle
		f1, hit1 := m.l1i.AccessLine(pc)
		b.Append(fetchCycle, pc>>6, pc, f1, trace.L1I, trace.Fetch, !hit1)
		if hit1 {
			m.cycle++ // fetch fully pipelined
		} else {
			f2, hit2 := m.l2.AccessLine(pc)
			b.Append(fetchCycle, pc>>6, pc, f2, trace.L2, trace.Fetch, !hit2)
			lat := m.l1iHitLat + m.l2HitLat
			if !hit2 {
				lat += m.memLat
			}
			m.cycle += lat // stall for the refill
		}
	}
	if in.Kind != workload.Op {
		kind := trace.Load
		if in.Kind == workload.Store {
			kind = trace.Store
		}
		df1, dhit1 := m.l1d.AccessLine(in.Addr)
		b.Append(m.cycle, in.Addr>>6, in.PC, df1, trace.L1D, kind, !dhit1)
		if !dhit1 {
			df2, dhit2 := m.l2.AccessLine(in.Addr)
			b.Append(m.cycle, in.Addr>>6, in.PC, df2, trace.L2, kind, !dhit2)
			// Stall for the portion beyond the pipelined L1 hit latency.
			lat := m.l2HitLat
			if !dhit2 {
				lat += m.memLat
			}
			m.cycle += lat
		}
	}
	if b.Len() > flushAt {
		m.flushBatch()
	}
}

// maxInstrEvents is the most events one instruction emits: a fetch that
// misses to the L2 and a data access that does too. A machine flushes its
// batch once fewer slots than that remain, after the instruction that
// filled it, so retire appends without a capacity check per event.
const (
	maxInstrEvents = 4
	flushAt        = stream.DefaultBatchEvents - maxInstrEvents
)

// flushBatch counts the current batch's events, hands the batch to sink
// and resets it for reuse. Once the run is stopping (cancellation or any
// machine's sink error) no sink is called again, and the batch is dropped.
func (m *machine) flushBatch() {
	m.events += uint64(m.batch.Len())
	if m.core.stopping {
		m.batch.Reset()
		return
	}
	//lint:ignore hotalloc one indirect flush per full batch
	if err := m.batch.Flush(m.sink); err != nil {
		m.core.sinkErr = err
		m.core.stopping = true
	}
}
