package leakage

// Extended baseline policies from the related work the paper surveys
// (Section 2). These are not part of the paper's Figure 8, but they are
// the schemes the oracle bounds are meant to be compared against, so the
// library implements them as additional baselines:
//
//   - PeriodicDrowsy — Flautner/Kim et al.'s drowsy cache: every line is
//     dropped to the retention voltage on a fixed period, regardless of
//     access pattern.
//   - EvaluateAdaptiveDecay — Velusamy et al.'s feedback-controlled decay:
//     the decay interval is tuned at run time; its steady state is modelled
//     as the best fixed interval from a ladder.
//   - EvaluateAMC — Zhou et al.'s adaptive mode control: like decay, but
//     the tags stay powered so the controller can observe would-be hits;
//     the data array sleeps, the tag array keeps leaking.

import (
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// PeriodicDrowsy models the drowsy cache of Kim, Flautner, Blaauw and
// Mudge: all cache lines are placed into drowsy mode every Window cycles.
// A line that is accessed wakes up (1-2 cycle stall, energy equal to the
// wake transition) and stays awake until the next period boundary.
//
// Over one access interval of length L, the line stays active until the
// first period boundary — W/2 cycles in expectation under a uniformly
// distributed phase — and is drowsy for the remainder. The policy is
// evaluated in this expected-value form.
type PeriodicDrowsy struct {
	// Window is the drowse period in cycles (the literature uses 2000-4000).
	Window uint64
}

// Name implements Policy.
func (p PeriodicDrowsy) Name() string { return fmt.Sprintf("Drowsy(%d)", p.Window) }

// IntervalEnergy implements Policy.
func (p PeriodicDrowsy) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	L := float64(length)
	w := float64(p.Window)
	if w <= 0 {
		return t.ActiveEnergy(L)
	}
	if flags&interval.Leading != 0 || flags&interval.Trailing != 0 {
		// Idle frames end up drowsy within one period and stay there.
		wait := w / 2
		if L <= wait {
			return t.ActiveEnergy(L)
		}
		return wait*t.PActive + (L-wait)*t.PDrowsy + float64(t.Durations.D1)*t.PActive
	}
	wait := w / 2 // expected cycles until the next drowse boundary
	oh := float64(t.Durations.DrowsyOverhead())
	if L <= wait+oh {
		return t.ActiveEnergy(L)
	}
	// Active until the boundary, then a standard drowsy residency with
	// wake on the closing access.
	return wait*t.PActive + t.DrowsyEnergy(L-wait)
}

// DecayThetaLadder is the set of decay intervals an adaptive controller
// explores (Velusamy et al. sweep a comparable range).
func DecayThetaLadder() []uint64 {
	return []uint64{1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000}
}

// EvaluateAdaptiveDecay models feedback-controlled cache decay at its
// steady state: the controller converges to the decay interval that
// minimizes energy for the observed workload, so the scheme's energy is
// the minimum of SleepDecay over the ladder. The returned evaluation is
// labelled "Adaptive-Decay" and records which theta won via the Policy
// field ("Adaptive-Decay(theta=N)"). The whole ladder evaluates in one
// aggregate-kernel pass (EvaluateMany).
func EvaluateAdaptiveDecay(t power.Technology, agg *interval.Aggregates) (Evaluation, error) {
	if agg == nil {
		return Evaluation{}, ErrNilDistribution
	}
	return bestOnLadder(t, agg, "Adaptive-Decay", func(theta uint64) Policy { return SleepDecay{Theta: theta} })
}

// bestOnLadder evaluates policy(theta) for every theta on DecayThetaLadder
// in one EvaluateMany pass and returns the lowest-energy evaluation (the
// earliest theta on ties), its Policy relabelled "label(theta=N)".
func bestOnLadder(t power.Technology, agg *interval.Aggregates, label string, policy func(theta uint64) Policy) (Evaluation, error) {
	ladder := DecayThetaLadder()
	ps := make([]Policy, len(ladder))
	for i, theta := range ladder {
		ps[i] = policy(theta)
	}
	evs, err := EvaluateMany(t, agg, ps)
	if err != nil {
		return Evaluation{}, err
	}
	best := 0
	for i := range evs {
		if evs[i].Energy < evs[best].Energy {
			best = i
		}
	}
	ev := evs[best]
	ev.Policy = fmt.Sprintf("%s(theta=%d)", label, ladder[best])
	return ev, nil
}

// AMCSleep models adaptive mode control (Zhou, Toburen, Rotenberg, Conte):
// the data array of an idle line is gated after Theta cycles, but the tag
// array stays powered so the controller can count would-be hits. The tag
// fraction of a line's leakage therefore never goes away.
type AMCSleep struct {
	// Theta is the turn-off interval in cycles.
	Theta uint64
	// TagFraction is the share of per-line leakage in the tag array
	// (address tag + state bits vs. 64B of data); ~0.06 for a 64B line
	// with a ~40-bit tag.
	TagFraction float64
}

// Name implements Policy.
func (p AMCSleep) Name() string { return fmt.Sprintf("AMC(%d)", p.Theta) }

// IntervalEnergy implements Policy.
func (p AMCSleep) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	base := SleepDecay{Theta: p.Theta}.IntervalEnergy(t, length, flags)
	// Whatever the decay scheme did, the tag keeps leaking at active power
	// for the whole interval; remove the tag's share of any sleep savings.
	slept := t.ActiveEnergy(float64(length)) - base
	if slept <= 0 {
		return base // nothing was gated; tags were already counted
	}
	tagGivenBack := p.TagFraction * slept
	return base + tagGivenBack
}

// EvaluateAMC models AMC's adaptive turn-off interval the same way as
// EvaluateAdaptiveDecay: steady state = best theta on the ladder, with the
// tag array always powered.
func EvaluateAMC(t power.Technology, agg *interval.Aggregates, tagFraction float64) (Evaluation, error) {
	if agg == nil {
		return Evaluation{}, ErrNilDistribution
	}
	if tagFraction < 0 || tagFraction >= 1 {
		return Evaluation{}, fmt.Errorf("leakage: tag fraction %g outside [0,1)", tagFraction)
	}
	return bestOnLadder(t, agg, "AMC", func(theta uint64) Policy { return AMCSleep{Theta: theta, TagFraction: tagFraction} })
}

// DirtyAwareHybrid extends OPT-Hybrid with write-back awareness: when
// gating a dirty line costs WBEnergy, the drowsy-sleep crossover for dirty
// intervals moves later — E_sleep(L) + WB = E_drowsy(L) solves at
// b_dirty = b + WB/(PDrowsy - PSleep) — and the policy uses the per-flag
// inflection point. With WBEnergy = 0 it reduces exactly to OPTHybrid.
// This is the optimal policy for the write-back-aware cost model, by the
// same lower-envelope argument as the appendix theorem.
type DirtyAwareHybrid struct{}

// Name implements Policy.
func (DirtyAwareHybrid) Name() string { return "OPT-Hybrid+WB" }

// DirtyInflection returns the drowsy-sleep crossover for dirty intervals.
func DirtyInflection(t power.Technology) (float64, error) {
	_, b, err := t.InflectionPoints()
	if err != nil {
		return 0, err
	}
	return b + t.WBEnergy/(t.PDrowsy-t.PSleep), nil
}

// IntervalEnergy implements Policy.
func (DirtyAwareHybrid) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	a, b, err := t.InflectionPoints()
	if err != nil {
		return t.ActiveEnergy(float64(length))
	}
	theta := b
	if flags&interval.Dirty != 0 {
		theta = b + t.WBEnergy/(t.PDrowsy-t.PSleep)
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

// DeadAwareHybrid is the oracle with live/dead knowledge added (the
// refinement the paper's Section 3.1 considers and dismisses): a
// dead-ending interval's block is never referenced again, so gating it
// causes no induced miss — the sleep energy drops the CD term and the
// drowsy-sleep crossover for dead intervals collapses to just past the
// transition overhead. Live intervals are handled exactly as OPT-Hybrid.
type DeadAwareHybrid struct{}

// Name implements Policy.
func (DeadAwareHybrid) Name() string { return "OPT-Hybrid+dead" }

// IntervalEnergy implements Policy.
func (DeadAwareHybrid) IntervalEnergy(t power.Technology, length uint64, flags interval.Flags) float64 {
	if flags&interval.DeadEnd == 0 || !flags.Interior() {
		return OPTHybrid{}.IntervalEnergy(t, length, flags)
	}
	a, _, err := t.InflectionPoints()
	if err != nil {
		return t.ActiveEnergy(float64(length))
	}
	L := float64(length)
	// CD-free sleep: E = overhead*Pa + rest*Ps (+WB if dirty). It beats
	// drowsy as soon as the crossover without CD is passed.
	d := t.Durations
	oh := float64(d.SleepOverhead())
	if L >= oh {
		sleepE := t.SleepEnergyNoRefetch(L)
		if flags&interval.Dirty != 0 {
			sleepE += t.WBEnergy
		}
		drowsyE := drowsyEnergyFor(t, L)
		if sleepE < drowsyE {
			return sleepE
		}
	}
	switch {
	case L > a:
		return drowsyEnergyFor(t, L)
	default:
		return t.ActiveEnergy(L)
	}
}
