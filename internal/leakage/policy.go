package leakage

import (
	"strconv"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// Policy decides how much energy one cache frame spends over one interval.
// Implementations are the schemes compared in Figure 8. A policy sees the
// interval's length, its flags (prefetchability, leading/trailing), and the
// circuit parameters; it returns the leakage + transition + induced-miss
// energy it would spend. It never returns more than active energy unless the
// scheme genuinely wastes energy (e.g. decay counters).
type Policy interface {
	// Name is the scheme's label as used in the paper's figures.
	Name() string
	// IntervalEnergy returns the energy spent on one interval.
	IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64
}

// Edge-gap energy helpers. A frame's leading gap starts with the line
// powered off (SRAM is invalid at reset), so sleeping it needs no
// entry transition and its re-fetch is the compulsory fill the baseline
// pays too; a trailing gap is never re-fetched.

// leadingSleepEnergy: off from cycle 0, wake just in time.
func leadingSleepEnergy(t power.Technology, length float64) float64 {
	d := t.Durations
	wakeCycles := float64(d.S3 + d.S4)
	rest := length - wakeCycles
	if rest < 0 {
		return t.ActiveEnergy(length) // cannot fit the wake; stay on
	}
	return rest*t.PSleep + wakeCycles*t.PActive
}

// trailingSleepEnergy: turn off after the last access, never wake.
func trailingSleepEnergy(t power.Technology, length float64) float64 {
	d := t.Durations
	if length < float64(d.S1) {
		return t.ActiveEnergy(length)
	}
	return float64(d.S1)*t.PActive + (length-float64(d.S1))*t.PSleep
}

// untouchedSleepEnergy: the frame is never filled; it stays gated the whole
// run.
func untouchedSleepEnergy(t power.Technology, length float64) float64 {
	return length * t.PSleep
}

// sleepEnergyFor dispatches an interval to the right sleep-energy formula
// based on its edge flags, charging the write-back energy when a dirty
// line is gated (zero on the paper-calibrated nodes; see power.WBEnergy).
func sleepEnergyFor(t power.Technology, length float64, flags interval.Flags) float64 {
	var wb float64
	if flags&interval.Dirty != 0 {
		wb = t.WBEnergy
	}
	switch {
	case flags&interval.Untouched == interval.Untouched:
		return untouchedSleepEnergy(t, length) // never filled, never dirty
	case flags&interval.Leading != 0:
		return leadingSleepEnergy(t, length)
	case flags&interval.Trailing != 0:
		return trailingSleepEnergy(t, length) + wb
	default:
		return t.SleepEnergy(length) + wb
	}
}

// drowsyEnergyFor covers an interval with drowsy mode, falling back to
// active when the transitions do not fit.
func drowsyEnergyFor(t power.Technology, length float64) float64 {
	if length <= float64(t.Durations.DrowsyOverhead()) {
		return t.ActiveEnergy(length)
	}
	return t.DrowsyEnergy(length)
}

// paramName renders a parameterized policy's Name, prefix + v + ")", with
// one allocation where fmt.Sprintf takes two: a dense sweep names every
// one of its policies per query.
func paramName(prefix string, v uint64) string {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	b = strconv.AppendUint(b, v, 10)
	return string(append(b, ')'))
}

// AlwaysActive is the baseline: no power management at all.
type AlwaysActive struct{}

// Name implements Policy.
func (AlwaysActive) Name() string { return "Active" }

// IntervalEnergy implements Policy.
func (AlwaysActive) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	return t.ActiveEnergy(float64(length))
}

// OPTDrowsy is the optimal drowsy-only cache: every interval longer than the
// active-drowsy point is drowsed, with just-in-time wakeup (no performance
// penalty, only transition energy).
type OPTDrowsy struct{}

// Name implements Policy.
func (OPTDrowsy) Name() string { return "OPT-Drowsy" }

// IntervalEnergy implements Policy.
func (OPTDrowsy) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	return drowsyEnergyFor(t, float64(length))
}

// OPTSleep is the optimal sleep-only cache with a minimum sleep interval
// Theta: any interval longer than Theta is gated for its whole duration and
// re-fetched just in time; shorter intervals stay active. Theta = the
// drowsy-sleep inflection point gives the paper's OPT-Sleep; Theta = 10000
// gives OPT-Sleep(10K).
type OPTSleep struct {
	// Theta is the minimum interval length put to sleep, in cycles.
	Theta uint64
}

// Name implements Policy.
func (p OPTSleep) Name() string { return paramName("OPT-Sleep(", p.Theta) }

// IntervalEnergy implements Policy.
func (p OPTSleep) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	L := float64(length)
	theta := float64(p.Theta)
	if m := float64(t.Durations.SleepOverhead()); theta < m {
		theta = m
	}
	if L > theta {
		return sleepEnergyFor(t, L, flags)
	}
	return t.ActiveEnergy(L)
}

// SleepDecay models the cache-decay scheme of Kaxiras et al. with decay
// interval Theta (the paper's Sleep(10K)): a line stays active for Theta
// cycles after its last access, then is gated; the next access pays the
// induced miss. Unlike the OPT variants there is no future knowledge, so
// the first Theta cycles of every long interval leak at full power, and a
// per-line decay counter adds a constant leakage overhead.
type SleepDecay struct {
	// Theta is the decay interval in cycles.
	Theta uint64
}

// Name implements Policy.
func (p SleepDecay) Name() string { return paramName("Sleep(", p.Theta) }

// IntervalEnergy implements Policy.
func (p SleepDecay) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	L := float64(length)
	counter := t.CounterLeak * L // the counter leaks for the whole interval
	d := t.Durations
	switch {
	case flags&interval.Untouched == interval.Untouched:
		// Never filled: the line stays gated (invalid lines are off).
		return untouchedSleepEnergy(t, L) + counter
	case flags&interval.Leading != 0:
		// Gated until the compulsory fill; the fill is a miss the baseline
		// pays too, and decay wakes the line as part of it.
		return leadingSleepEnergy(t, L) + counter
	}
	theta := float64(p.Theta)
	// The decay transition fits only if the remainder after the active wait
	// can hold the turn-off (and, for interior intervals, the wake).
	need := theta + float64(d.S1)
	if flags&interval.Trailing == 0 {
		need += float64(d.S3 + d.S4)
	}
	if L <= need {
		return t.ActiveEnergy(L) + counter
	}
	activePart := theta * t.PActive
	off := float64(d.S1) * t.PActive
	var wb float64
	if flags&interval.Dirty != 0 {
		wb = t.WBEnergy
	}
	if flags&interval.Trailing != 0 {
		rest := (L - theta - float64(d.S1)) * t.PSleep
		return activePart + off + rest + wb + counter
	}
	wake := float64(d.S3+d.S4) * t.PActive
	rest := (L - need) * t.PSleep
	return activePart + off + rest + wake + t.CD + wb + counter
}

// OPTHybrid optimally combines all three modes using the two inflection
// points: active on (0,a], drowsy on (a,b], sleep on (b,+inf). SleepTheta
// optionally raises the sleep threshold above b (the Figure 7 sweep); zero
// means "use the inflection point".
type OPTHybrid struct {
	// SleepTheta overrides the drowsy-sleep inflection point when > 0.
	SleepTheta uint64
}

// Name implements Policy.
func (p OPTHybrid) Name() string {
	if p.SleepTheta > 0 {
		return paramName("OPT-Hybrid(", p.SleepTheta)
	}
	return "OPT-Hybrid"
}

// IntervalEnergy implements Policy.
func (p OPTHybrid) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	a, b, err := t.InflectionPoints()
	if err != nil {
		// Degenerate parameters: fall back to the safe mode.
		return t.ActiveEnergy(float64(length))
	}
	theta := b
	if p.SleepTheta > 0 {
		theta = float64(p.SleepTheta)
	}
	L := float64(length)
	switch {
	case L > theta:
		return sleepEnergyFor(t, L, flags)
	case L > a:
		return drowsyEnergyFor(t, L)
	default:
		return t.ActiveEnergy(L)
	}
}

// PrefetchGuided implements the Prefetch-A / Prefetch-B schemes of
// Section 5.2 (Table 3). Prefetchable intervals get the mode the inflection
// points prescribe, because the prefetcher can hide the wakeup; for
// non-prefetchable intervals Prefetch-A stays active (performance-first)
// while Prefetch-B drops to drowsy (power-first, accepting the 1–2 cycle
// wake stall). Leading gaps and untouched frames are gated — invalid lines
// start powered off, with no oracle needed.
type PrefetchGuided struct {
	// PowerBiased selects Prefetch-B semantics; false is Prefetch-A.
	PowerBiased bool
}

// PrefetchA returns the performance-biased scheme.
func PrefetchA() PrefetchGuided { return PrefetchGuided{PowerBiased: false} }

// PrefetchB returns the power-biased scheme.
func PrefetchB() PrefetchGuided { return PrefetchGuided{PowerBiased: true} }

// Name implements Policy.
func (p PrefetchGuided) Name() string {
	if p.PowerBiased {
		return "Prefetch-B"
	}
	return "Prefetch-A"
}

// IntervalEnergy implements Policy.
func (p PrefetchGuided) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	L := float64(length)
	switch {
	case flags&interval.Untouched == interval.Untouched:
		return untouchedSleepEnergy(t, L)
	case flags&interval.Leading != 0:
		return leadingSleepEnergy(t, L)
	}
	a, b, err := t.InflectionPoints()
	if err != nil {
		return t.ActiveEnergy(L)
	}
	if flags.Prefetchable() {
		switch {
		case L > b:
			return sleepEnergyFor(t, L, flags)
		case L > a:
			return drowsyEnergyFor(t, L)
		default:
			return t.ActiveEnergy(L)
		}
	}
	if p.PowerBiased && L > a {
		return drowsyEnergyFor(t, L)
	}
	return t.ActiveEnergy(L)
}
