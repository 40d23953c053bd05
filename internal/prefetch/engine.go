package prefetch

// Engine is an implementable hardware prefetcher — next-line plus per-PC
// stride — as opposed to the oracle-side interval Classifier. It watches
// the demand access stream, issues prefetch requests, and accounts for
// their usefulness, which is what lets the library check the premise of
// Section 5 ("most of the cache misses can be captured by these schemes",
// citing Sair, Sherwood and Calder): the coverage and accuracy of the
// predictors on each workload.
//
// The engine is evaluated against the trace rather than mutating the
// simulated cache: a prefetch is *useful* if the predicted line is
// demanded within Lookahead cycles of being issued, *late* if the demand
// arrives before the prefetch could have completed, and *useless* if no
// demand arrives before the entry ages out.

import (
	"fmt"

	"leakbound/internal/sim/trace"
	"leakbound/internal/telemetry"
	"leakbound/internal/u64map"
)

// EngineConfig controls the prefetch engine.
type EngineConfig struct {
	Config
	// Lookahead is the window (cycles) within which a prefetched line must
	// be demanded to count as useful; beyond it the prefetch is useless
	// (pollution). A few times the L2 latency is customary.
	Lookahead uint64
	// MinLatency is the earliest a prefetch can complete after issue
	// (the L2 hit latency); a demand arriving sooner makes the prefetch
	// late — it helps, but cannot fully hide the miss.
	MinLatency uint64
}

// DefaultEngineConfig returns an engine with an L2-scaled window for the
// given predictor set.
func DefaultEngineConfig(cfg Config) EngineConfig {
	return EngineConfig{Config: cfg, Lookahead: 10000, MinLatency: 7}
}

// Validate checks the configuration.
func (c EngineConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Lookahead == 0 {
		return fmt.Errorf("prefetch: zero lookahead")
	}
	return nil
}

// EngineStats summarizes the engine's behaviour over a trace.
type EngineStats struct {
	DemandAccesses uint64
	DemandMisses   uint64
	Issued         uint64 // prefetches issued
	Useful         uint64 // demanded within (MinLatency, Lookahead]
	Late           uint64 // demanded within [0, MinLatency]
	Useless        uint64 // aged out without a demand
	CoveredMisses  uint64 // demand misses whose line had a timely prefetch in flight
}

// Accuracy returns Useful / Issued.
func (s EngineStats) Accuracy() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Useful) / float64(s.Issued)
}

// Coverage returns the fraction of demand misses a timely prefetch covered.
func (s EngineStats) Coverage() float64 {
	if s.DemandMisses == 0 {
		return 0
	}
	return float64(s.CoveredMisses) / float64(s.DemandMisses)
}

// Engine is the prefetcher; feed it the demand access stream of one cache
// in cycle order via AccessCols, then read Finish's statistics. Its stride
// predictions come from a Classifier: its own stride-only one, or the
// collector's after ShareStrides. The in-flight table is a paged u64map
// table; an entry stores issuedAt+1 so a fresh slot (zero) is
// distinguishable from a live record in a single probe.
type Engine struct {
	cfg EngineConfig
	// inflight maps lineAddr -> issue cycle + 1. Retired prefetches are
	// zeroed in place rather than deleted: tombstone churn on a small
	// table forces a compacting rehash (and its allocations) every few
	// retirements, whereas zeroed slots are simply reused by the next
	// issue to the same line. Paged storage: next-line issues land one
	// line past the demand stream, so the one-page memo absorbs almost
	// every probe.
	inflight  u64map.Pages
	inflightN int // live (non-zero) in-flight entries
	// strides is the classifier whose post-observation prediction
	// (predLine) the engine issues: &own, which the engine feeds each
	// access itself, or after ShareStrides the collector's, which its
	// collector feeds. nil when cfg.Stride is off and nothing was shared.
	// own lives inside the Engine so it costs no allocation of its own.
	strides  *Classifier
	own      Classifier
	stats    EngineStats
	lastSeen uint64
}

// NewEngine builds an engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, own: Classifier{cfg: Config{Stride: true}}}
	if cfg.Stride {
		e.strides = &e.own
	}
	return e, nil
}

// MustNewEngine panics on bad configuration.
func MustNewEngine(cfg EngineConfig) *Engine {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// ShareStrides makes the engine issue the stride predictions of c, the
// collector's classifier, in place of its own stride-only one. Fed the
// same event stream, the two evolve bit-identical stride tables, so the
// second probe and update per data access is pure waste. The caller must
// deliver every access to c (through the collector's AddCols) before the
// engine's AccessCols for it, which is the order the streaming sink
// dispatches in.
func (e *Engine) ShareStrides(c *Classifier) error {
	if c == nil {
		return fmt.Errorf("prefetch: nil classifier")
	}
	if e.cfg.Config != c.cfg {
		return fmt.Errorf("prefetch: predictor config mismatch: engine %+v, classifier %+v", e.cfg.Config, c.cfg)
	}
	if e.own.strides.Len() > 0 {
		return fmt.Errorf("prefetch: engine already has stride state")
	}
	e.strides = c
	return nil
}

// AccessCols feeds one demand access, given as its stream.Batch columns;
// the caller routes only this engine's cache to it. It returns the number
// of prefetches issued in response (useful mainly for tests).
func (e *Engine) AccessCols(cycle, lineAddr, pc uint64, kind trace.Kind, miss bool) int {
	e.stats.DemandAccesses++
	e.expire(cycle)

	// Demand lookup against in-flight prefetches.
	if rec := e.inflight.Lookup(lineAddr); rec != nil && *rec != 0 {
		age := cycle - (*rec - 1)
		if age > e.cfg.MinLatency {
			e.stats.Useful++
			if miss {
				// The simulator's cache did not have the prefetch, but a
				// prefetching cache would have: count the miss as covered.
				e.stats.CoveredMisses++
			}
		} else {
			e.stats.Late++
		}
		*rec = 0
		e.inflightN--
	}
	if miss {
		e.stats.DemandMisses++
	}

	issued := 0
	// Next-line prediction.
	if e.cfg.NextLine {
		issued += e.issue(lineAddr+1, cycle)
	}
	// Stride prediction (data accesses only): an owned classifier sees the
	// access here, a shared one already saw it in the collector.
	if e.strides == &e.own {
		e.own.ClassifyObserve(cycle, lineAddr, pc, kind, 0, false)
	}
	if e.strides != nil {
		if p := e.strides.predLine; p != 0 {
			issued += e.issue(p-1, cycle)
		}
	}
	e.lastSeen = cycle
	return issued
}

// issue records a prefetch unless one is already in flight for the line.
// The issuedAt+1 encoding makes the present/absent check and the insert a
// single Upsert probe.
func (e *Engine) issue(lineAddr, cycle uint64) int {
	rec := e.inflight.Slot(lineAddr)
	if *rec != 0 {
		return 0
	}
	*rec = cycle + 1
	e.inflightN++
	e.stats.Issued++
	return 1
}

// expire retires prefetches older than the lookahead window.
func (e *Engine) expire(now uint64) {
	if e.inflightN == 0 {
		return
	}
	// The live set is small (bounded by issue rate * lookahead); a
	// periodic sweep keeps this O(1) amortized.
	if now < e.lastSeen+e.cfg.Lookahead/4 {
		return
	}
	e.inflight.Each(func(_ uint64, rec *uint64) bool {
		if *rec != 0 && now-(*rec-1) > e.cfg.Lookahead {
			e.stats.Useless++
			*rec = 0
			e.inflightN--
		}
		return true
	})
}

// Finish retires all remaining in-flight prefetches as useless and returns
// the final statistics. Totals are flushed to telemetry here — once per
// engine lifetime — so AccessCols stays free of shared-memory traffic.
func (e *Engine) Finish() EngineStats {
	e.stats.Useless += uint64(e.inflightN)
	e.inflightN = 0
	e.inflight = u64map.Pages{}
	sc := telemetry.Default().Scope("prefetch")
	sc.Counter("engines_finished").Add(1)
	sc.Counter("demand_accesses").Add(e.stats.DemandAccesses)
	sc.Counter("demand_misses").Add(e.stats.DemandMisses)
	sc.Counter("issued").Add(e.stats.Issued)
	sc.Counter("useful").Add(e.stats.Useful)
	sc.Counter("late").Add(e.stats.Late)
	sc.Counter("useless").Add(e.stats.Useless)
	sc.Counter("covered_misses").Add(e.stats.CoveredMisses)
	return e.stats
}
