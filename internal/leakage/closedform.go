package leakage

// The closed forms behind the aggregate fast path: every builtin policy
// declares its IntervalEnergy as a piecewise-affine Curve per flags
// value, each piece tagged with the IntervalMisses of its lengths. The
// curves mirror the reference implementations in
// policy.go/extended.go/coloring.go/waymemo.go branch for branch —
// same threshold comparisons on float64(length), same flag dispatch —
// differing only by floating-point regrouping of each branch's affine
// arithmetic. TestClosedFormsMatchReference pins the agreement pointwise
// across every flags value, technology node, and threshold neighborhood;
// the aggregate property tests pin it distribution-wide.
//
// Custom registry schemes that do not implement ClosedForm (no declared
// threshold structure) simply bypass the fast path: EvaluateAggregate
// falls back to the reference walk over Aggregates.Source().

import (
	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// ClosedForm is implemented by policies whose IntervalEnergy is piecewise
// affine in the interval length for any fixed flags value. EnergyCurve
// returns the curve for one flags value, whose pieces also carry the
// policy's IntervalMisses; ok=false (or an invalid curve) means the
// policy cannot express this flags class in closed form and the caller
// must fall back to the bucket-walking reference path for the whole
// distribution.
type ClosedForm interface {
	EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool)
}

// Shared building blocks, mirroring the helpers in policy.go.

func activeCurve(t power.Technology) Curve { return affine(0, t.PActive) }

// drowsyForCurve mirrors drowsyEnergyFor: active for L <= DrowsyOverhead,
// DrowsyEnergy past it.
func drowsyForCurve(t power.Technology) Curve {
	oh := float64(t.Durations.DrowsyOverhead())
	drowsy := affine(oh*t.PActive-oh*t.PDrowsy, t.PDrowsy)
	return switchAt(oh, activeCurve(t), drowsy)
}

// leadingSleepCurve mirrors leadingSleepEnergy: active when the wake
// cannot fit (L < S3+S4, i.e. the cut sits at wake-0.5 for the integer
// lengths distributions record), off-then-wake otherwise.
func leadingSleepCurve(t power.Technology) Curve {
	wake := float64(t.Durations.S3 + t.Durations.S4)
	slept := affine(wake*t.PActive-wake*t.PSleep, t.PSleep)
	return switchAt(wake-0.5, activeCurve(t), slept)
}

// trailingSleepCurve mirrors trailingSleepEnergy: active for L < S1.
func trailingSleepCurve(t power.Technology) Curve {
	s1 := float64(t.Durations.S1)
	slept := affine(s1*t.PActive-s1*t.PSleep, t.PSleep)
	return switchAt(s1-0.5, activeCurve(t), slept)
}

func untouchedSleepCurve(t power.Technology) Curve { return affine(0, t.PSleep) }

// sleepForCurve mirrors sleepEnergyFor's flag dispatch, including the
// write-back charge riding on trailing and interior dirty intervals. Only
// the interior piece charges CD, so only it re-fetches.
func sleepForCurve(t power.Technology, flags interval.Flags) Curve {
	var wb float64
	if flags&interval.Dirty != 0 {
		wb = t.WBEnergy
	}
	switch {
	case flags&interval.Untouched == interval.Untouched:
		return untouchedSleepCurve(t)
	case flags&interval.Leading != 0:
		return leadingSleepCurve(t)
	case flags&interval.Trailing != 0:
		return trailingSleepCurve(t).plus(wb, 0, 0)
	default:
		ohS := float64(t.Durations.SleepOverhead())
		return affine(ohS*t.PActive-ohS*t.PSleep+t.CD+wb, t.PSleep).plus(0, 0, 1)
	}
}

// EnergyCurve implements ClosedForm.
func (AlwaysActive) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	return activeCurve(t), true
}

// EnergyCurve implements ClosedForm.
func (OPTDrowsy) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	return drowsyForCurve(t), true
}

// optSleepTheta applies the reference's clamp: theta never drops below
// the sleep overhead.
func (p OPTSleep) theta(t power.Technology) float64 {
	theta := float64(p.Theta)
	if m := float64(t.Durations.SleepOverhead()); theta < m {
		theta = m
	}
	return theta
}

// EnergyCurve implements ClosedForm.
func (p OPTSleep) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	return switchAt(p.theta(t), activeCurve(t), sleepForCurve(t, flags)), true
}

// EnergyCurve implements ClosedForm.
func (p SleepDecay) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	d := t.Durations
	counter := t.CounterLeak
	switch {
	case flags&interval.Untouched == interval.Untouched:
		return untouchedSleepCurve(t).plus(0, counter, 0), true
	case flags&interval.Leading != 0:
		return leadingSleepCurve(t).plus(0, counter, 0), true
	}
	theta := float64(p.Theta)
	need := theta + float64(d.S1)
	if flags&interval.Trailing == 0 {
		need += float64(d.S3 + d.S4)
	}
	var wb float64
	if flags&interval.Dirty != 0 {
		wb = t.WBEnergy
	}
	var gated Curve
	if flags&interval.Trailing != 0 {
		gated = affine(theta*t.PActive+float64(d.S1)*t.PActive-(theta+float64(d.S1))*t.PSleep+wb, t.PSleep)
	} else {
		wake := float64(d.S3+d.S4) * t.PActive
		gated = affine(theta*t.PActive+float64(d.S1)*t.PActive+wake+t.CD+wb-need*t.PSleep, t.PSleep).plus(0, 0, 1)
	}
	return switchAt(need, activeCurve(t), gated).plus(0, counter, 0), true
}

// EnergyCurve implements ClosedForm.
func (p OPTHybrid) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	_, b, err := t.InflectionPoints()
	if err != nil {
		return activeCurve(t), true
	}
	theta := b
	if p.SleepTheta > 0 {
		theta = float64(p.SleepTheta)
	}
	return switchAt(theta, drowsyForCurve(t), sleepForCurve(t, flags)), true
}

// EnergyCurve implements ClosedForm.
func (p PeriodicDrowsy) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	w := float64(p.Window)
	if w <= 0 {
		return activeCurve(t), true
	}
	wait := w / 2
	if flags&interval.Leading != 0 || flags&interval.Trailing != 0 {
		idle := affine(wait*t.PActive-wait*t.PDrowsy+float64(t.Durations.D1)*t.PActive, t.PDrowsy)
		return switchAt(wait, activeCurve(t), idle), true
	}
	oh := float64(t.Durations.DrowsyOverhead())
	drowsed := affine(wait*t.PActive+oh*t.PActive-(wait+oh)*t.PDrowsy, t.PDrowsy)
	return switchAt(wait+oh, activeCurve(t), drowsed), true
}

// EnergyCurve implements ClosedForm.
func (p PrefetchGuided) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	switch {
	case flags&interval.Untouched == interval.Untouched:
		return untouchedSleepCurve(t), true
	case flags&interval.Leading != 0:
		return leadingSleepCurve(t), true
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		return activeCurve(t), true
	}
	if flags.Prefetchable() {
		return switchAt(b, drowsyForCurve(t), sleepForCurve(t, flags)), true
	}
	if p.PowerBiased {
		return drowsyForCurve(t), true
	}
	return activeCurve(t), true
}

// EnergyCurve implements ClosedForm: the decay base curve with the tag
// array's share of any sleep savings given back.
func (p AMCSleep) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	base, ok := SleepDecay{Theta: p.Theta}.EnergyCurve(t, flags)
	return tagTransform(base, p.TagFraction, t.PActive), ok
}

// dirtyTheta mirrors DirtyAwareHybrid's per-flag crossover.
func dirtyTheta(t power.Technology, b float64, flags interval.Flags) float64 {
	if flags&interval.Dirty != 0 {
		return b + t.WBEnergy/(t.PDrowsy-t.PSleep)
	}
	return b
}

// EnergyCurve implements ClosedForm.
func (DirtyAwareHybrid) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	_, b, err := t.InflectionPoints()
	if err != nil {
		return activeCurve(t), true
	}
	return switchAt(dirtyTheta(t, b, flags), drowsyForCurve(t), sleepForCurve(t, flags)), true
}

// EnergyCurve implements ClosedForm: the dead-interior branch gates
// wherever CD-free sleep beats the drowsy schedule (for L >= the sleep
// overhead) and never re-fetches, everything else follows OPT-Hybrid.
func (DeadAwareHybrid) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	if flags&interval.DeadEnd == 0 || !flags.Interior() {
		return OPTHybrid{}.EnergyCurve(t, flags)
	}
	if _, _, err := t.InflectionPoints(); err != nil {
		return activeCurve(t), true
	}
	ohS := float64(t.Durations.SleepOverhead())
	var wb float64
	if flags&interval.Dirty != 0 {
		wb = t.WBEnergy
	}
	sleepNR := affine(ohS*t.PActive-ohS*t.PSleep+wb, t.PSleep)
	base := drowsyForCurve(t)
	return switchAt(ohS-0.5, base, pickBelow(base, sleepNR)), true
}

// EnergyCurve implements ClosedForm.
func (p Coloring) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	switch {
	case flags&interval.Untouched == interval.Untouched:
		return untouchedSleepCurve(t), true
	case flags&interval.Leading != 0:
		return leadingSleepCurve(t), true
	}
	return switchAt(p.regionTheta(t), activeCurve(t), sleepForCurve(t, flags)), true
}

// EnergyCurve implements ClosedForm.
func (p WayMemo) EnergyCurve(t power.Technology, flags interval.Flags) (Curve, bool) {
	switch {
	case flags&interval.Untouched == interval.Untouched:
		return untouchedSleepCurve(t), true
	case flags&interval.Leading != 0:
		return leadingSleepCurve(t), true
	}
	if !flags.Prefetchable() {
		return activeCurve(t), true
	}
	_, b, err := t.InflectionPoints()
	if err != nil {
		return activeCurve(t), true
	}
	slept := sleepForCurve(t, flags)
	if flags.Interior() {
		// A mispredicted pre-wake adds one more CD-equivalent re-fetch.
		slept = slept.plus((1-p.Accuracy)*t.CD, 0, 1-p.Accuracy)
	}
	return switchAt(b, drowsyForCurve(t), slept), true
}
