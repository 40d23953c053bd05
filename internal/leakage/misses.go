package leakage

// The induced-miss side of the Pareto view: every sleep decision that
// charges the induced-miss re-fetch energy CD is also an extra fetch the
// memory system must perform, so counting expected CD charges per
// interval gives the performance axis the energy numbers alone hide.
// Policies report their own count through MissModel, mirroring the exact
// decision structure of their IntervalEnergy — an interval is counted iff
// its energy path charged CD (edge gaps never do: the leading re-fetch is
// the compulsory fill the baseline pays too, and trailing gaps are never
// re-fetched).

import (
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// MissModel is optionally implemented by policies that can report the
// expected induced re-fetches (CD-equivalent events) their gating causes
// on one interval. All built-in registrations implement it.
type MissModel interface {
	IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64
}

// InducedMissRate folds a policy's miss model over the distribution and
// returns the induced re-fetches per 1000 intervals — the Pareto
// frontier's performance axis. Policies without a MissModel return
// ErrNoMissModel.
func InducedMissRate(t power.Technology, d *interval.Distribution, p Policy) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if d == nil {
		return 0, ErrNilDistribution
	}
	if p == nil {
		return 0, ErrNilPolicy
	}
	mm, ok := p.(MissModel)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoMissModel, p.Name())
	}
	n := d.NumIntervals()
	if n == 0 {
		return 0, fmt.Errorf("%w: no intervals", ErrEmptyDistribution)
	}
	var total float64
	d.Each(func(length uint64, flags interval.Flags, count uint64) bool {
		total += mm.IntervalMisses(t, length, flags) * float64(count)
		return true
	})
	return total * 1000 / float64(n), nil
}

// IntervalMisses implements MissModel: the baseline never re-fetches.
func (AlwaysActive) IntervalMisses(power.Technology, uint64, interval.Flags) float64 { return 0 }

// IntervalMisses implements MissModel: drowsy wakeups preserve state and
// cost only the 1-2 cycle wake, never a re-fetch.
func (OPTDrowsy) IntervalMisses(power.Technology, uint64, interval.Flags) float64 { return 0 }

// IntervalMisses implements MissModel: drowsy-only, no re-fetches.
func (PeriodicDrowsy) IntervalMisses(power.Technology, uint64, interval.Flags) float64 { return 0 }

// IntervalMisses implements MissModel.
func (p OPTSleep) IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64 {
	if !flags.Interior() {
		return 0
	}
	theta := float64(p.Theta)
	if m := float64(t.Durations.SleepOverhead()); theta < m {
		theta = m
	}
	if float64(length) > theta {
		return 1
	}
	return 0
}

// IntervalMisses implements MissModel.
func (p SleepDecay) IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64 {
	if !flags.Interior() {
		return 0
	}
	d := t.Durations
	need := float64(p.Theta) + float64(d.S1) + float64(d.S3+d.S4)
	if float64(length) > need {
		return 1
	}
	return 0
}

// IntervalMisses implements MissModel.
func (p OPTHybrid) IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64 {
	if !flags.Interior() {
		return 0
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		return 0
	}
	theta := b
	if p.SleepTheta > 0 {
		theta = float64(p.SleepTheta)
	}
	if float64(length) > theta {
		return 1
	}
	return 0
}

// IntervalMisses implements MissModel.
func (p PrefetchGuided) IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64 {
	if !flags.Interior() || !flags.Prefetchable() {
		return 0 // non-prefetchable intervals stay active or drowsy
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		return 0
	}
	if float64(length) > b {
		return 1
	}
	return 0
}

// IntervalMisses implements MissModel: same decision as the decay core;
// the tag array staying powered changes energy, not re-fetch count.
func (p AMCSleep) IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64 {
	return SleepDecay{Theta: p.Theta}.IntervalMisses(t, length, flags)
}

// IntervalMisses implements MissModel.
func (DirtyAwareHybrid) IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64 {
	if !flags.Interior() {
		return 0
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		return 0
	}
	theta := b
	if flags&interval.Dirty != 0 {
		theta = b + t.WBEnergy/(t.PDrowsy-t.PSleep)
	}
	if float64(length) > theta {
		return 1
	}
	return 0
}

// IntervalMisses implements MissModel: a gated dead-ending interval is
// never re-fetched (that is the point of the dead oracle), so only the
// live slept intervals count.
func (DeadAwareHybrid) IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64 {
	if flags&interval.DeadEnd != 0 && flags.Interior() {
		return 0
	}
	return OPTHybrid{}.IntervalMisses(t, length, flags)
}

// IntervalMisses implements MissModel.
func (p Coloring) IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64 {
	if !flags.Interior() {
		return 0
	}
	if float64(length) > p.regionTheta(t) {
		return 1
	}
	return 0
}

// IntervalMisses implements MissModel: a slept predicted interval always
// re-fetches, and a mispredicted pre-wake adds one more CD-equivalent
// stall in expectation.
func (p WayMemo) IntervalMisses(t power.Technology, length uint64, flags interval.Flags) float64 {
	if !flags.Interior() || !flags.Prefetchable() {
		return 0
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		return 0
	}
	if float64(length) > b {
		return 1 + (1 - p.Accuracy)
	}
	return 0
}
