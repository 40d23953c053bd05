// Package prefetch implements the two hardware prefetching schemes the
// paper uses to approximate the oracle's perfect future knowledge
// (Section 5): next-line prefetching and Farkas-style per-static-load
// stride prefetching. Its classifiers plug into internal/interval's
// Collector to flag each access interval as prefetchable or not, which the
// Prefetch-A and Prefetch-B policies in internal/leakage then consume.
// Classifier.ClassifyObserve is the one implementation of both predictors:
// the hardware Engine issues the stride predictions a Classifier leaves
// behind rather than keeping a stride table of its own.
//
// An interval of cache line X is next-line prefetchable when line X−1 was
// accessed within the interval — the access to X−1 would have triggered a
// prefetch of X in time to hide the wakeup. An interval is stride
// prefetchable when the static load that closes it had already established
// a constant stride (the same stride seen at least twice) predicting
// exactly this address, and the predicting access fell within the interval.
package prefetch

import (
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/sim/trace"
	"leakbound/internal/u64map"
)

// Config selects which predictors a classifier runs. The paper uses
// next-line only for the instruction cache, and next-line plus stride for
// the data cache (Section 5.1). Stride tables are unbounded (oracle-sized,
// the paper's limit-study setting).
type Config struct {
	NextLine bool
	Stride   bool
}

// ForICache returns the paper's instruction-cache configuration.
func ForICache() Config { return Config{NextLine: true} }

// ForDCache returns the paper's data-cache configuration.
func ForDCache() Config { return Config{NextLine: true, Stride: true} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.NextLine && !c.Stride {
		return fmt.Errorf("prefetch: no predictor enabled")
	}
	return nil
}

// strideEntry tracks one static load's access pattern.
type strideEntry struct {
	lastAddr  uint64
	lastCycle uint64
	stride    int64
	confirmed bool // the same stride has been seen at least twice
}

// Classifier implements interval.Classifier for one cache's event stream.
// Its predictor tables are flat open-addressed u64map tables: the
// per-event lookup cost is what dominated Suite profiles when these were
// Go maps.
type Classifier struct {
	cfg Config

	// lastLineAccess maps block-aligned line address -> cycle of the most
	// recent access + 1 (0 = never seen). Used by next-line detection.
	// Paged storage: line addresses have strong spatial locality, so the
	// one-page memo turns most updates into an array store.
	lastLineAccess u64map.Pages

	// strides maps static load PC -> its stride predictor state.
	strides u64map.Map[strideEntry]

	// predLine is the line the stride predictor would prefetch after the
	// most recent observation, encoded +1 (0 = no confirmed prediction).
	// An Engine issues it as its stride prefetch.
	predLine uint64

	// Counters for Figure 9's prefetchability accounting.
	nlHits     uint64
	strideHits uint64
}

var _ interval.Classifier = (*Classifier)(nil)

// NewClassifier builds a classifier with the given predictor configuration.
func NewClassifier(cfg Config) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Classifier{cfg: cfg}, nil
}

// MustNewClassifier is NewClassifier that panics on bad configuration.
func MustNewClassifier(cfg Config) *Classifier {
	c, err := NewClassifier(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// ClassifyObserve implements interval.Classifier: one call per access that
// first classifies the interval it closes (when closing) against the
// predictor state so far, then observes the access. Both halves touch the
// same PC stride entry, so one probe serves them: classification reads the
// entry before the observation updates it.
//
// This is the one implementation of both predictors' decisions: an Engine
// issues the stride prediction the observation leaves in predLine.
//
//lint:hotpath
func (c *Classifier) ClassifyObserve(cycle, lineAddr, pc uint64, kind trace.Kind, start uint64, closing bool) interval.Flags {
	var flags interval.Flags
	if c.cfg.NextLine {
		if closing && lineAddr > 0 {
			if lp := c.lastLineAccess.Lookup(lineAddr - 1); lp != nil && *lp > 0 {
				if lastCycle := *lp - 1; lastCycle > start && lastCycle < cycle {
					flags |= interval.NLPrefetchable
					c.nlHits++
				}
			}
		}
		*c.lastLineAccess.Slot(lineAddr) = cycle + 1
	}
	c.predLine = 0
	if c.cfg.Stride && kind != trace.Fetch {
		addr := lineAddr << 6
		s := c.strides.Ptr(pc)
		if s == nil {
			c.strides.Set(pc, strideEntry{lastAddr: addr, lastCycle: cycle})
			return flags
		}
		if closing && flags&interval.NLPrefetchable == 0 && s.confirmed {
			predicted := s.lastAddr + uint64(s.stride)
			if s.stride != 0 && predicted>>6 == lineAddr &&
				s.lastCycle > start && s.lastCycle < cycle {
				flags |= interval.StridePrefetchable
				c.strideHits++
			}
		}
		stride := int64(addr) - int64(s.lastAddr)
		if stride == s.stride && stride != 0 {
			s.confirmed = true
		} else {
			s.stride = stride
			s.confirmed = false
		}
		s.lastAddr = addr
		s.lastCycle = cycle
		if s.confirmed {
			c.predLine = uint64(int64(addr)+s.stride)>>6 + 1
		}
	}
	return flags
}

// Stats reports how many interval closings each predictor flagged.
func (c *Classifier) Stats() (nextLine, stride uint64) {
	return c.nlHits, c.strideHits
}

// Prefetchability summarizes Figure 9: how interval counts split across the
// three length regimes and, within each, the prefetchable share.
type Prefetchability struct {
	// Boundaries used for the split (a and b; 6 and 1057 at 70nm).
	A, B float64
	// Counts of interior intervals per regime.
	ShortCount, MidCount, LongCount uint64
	// Prefetchable counts within the mid and long regimes, split by
	// predictor. Short intervals are always non-prefetchable by definition
	// (they are never put in a low-power mode, so there is nothing to
	// prefetch; Section 5.2).
	MidNL, MidStride   uint64
	LongNL, LongStride uint64
}

// Total returns the total interior interval count.
func (p Prefetchability) Total() uint64 {
	return p.ShortCount + p.MidCount + p.LongCount
}

// NLShare returns the fraction of all intervals flagged next-line
// prefetchable (the paper's P-NL).
func (p Prefetchability) NLShare() float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.MidNL+p.LongNL) / float64(t)
}

// StrideShare returns the fraction flagged stride prefetchable (P-stride).
func (p Prefetchability) StrideShare() float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.MidStride+p.LongStride) / float64(t)
}

// PrefetchableShare returns the total prefetchable fraction.
func (p Prefetchability) PrefetchableShare() float64 {
	return p.NLShare() + p.StrideShare()
}

// Add folds q's counts into p, as when summing per-benchmark breakdowns
// into a suite-wide one. The boundaries stay p's.
func (p *Prefetchability) Add(q Prefetchability) {
	p.ShortCount += q.ShortCount
	p.MidCount += q.MidCount
	p.LongCount += q.LongCount
	p.MidNL += q.MidNL
	p.MidStride += q.MidStride
	p.LongNL += q.LongNL
	p.LongStride += q.LongStride
}

// Analyze computes Figure 9's breakdown from a flagged distribution's
// prefix aggregates and the two inflection points. Each interior flags
// class splits by two prefix lookups: Short = Prefix(a), Mid = Prefix(b)
// - Prefix(a) and Long = the rest, on the same float64(length) <= cut
// comparisons a bucket walk would make. An interval flagged by both
// predictors counts as next-line.
func Analyze(agg *interval.Aggregates, a, b float64) Prefetchability {
	out := Prefetchability{A: a, B: b}
	for i := range agg.Classes() {
		cls := &agg.Classes()[i]
		if !cls.Flags.Interior() {
			continue
		}
		short, _ := cls.Prefix(a)
		upToB, _ := cls.Prefix(b)
		upToB = max(upToB, short) // b <= a: nothing is mid
		mid, long := upToB-short, cls.TotalCount()-upToB
		out.ShortCount += short
		out.MidCount += mid
		out.LongCount += long
		switch {
		case cls.Flags&interval.NLPrefetchable != 0:
			out.MidNL += mid
			out.LongNL += long
		case cls.Flags&interval.StridePrefetchable != 0:
			out.MidStride += mid
			out.LongStride += long
		}
	}
	return out
}
