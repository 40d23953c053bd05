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
// Every builtin is a curvePolicy: its EnergyCurve is one build into the
// named result, and Compile builds a whole policy list's curves through
// one curveEnv. The aggregate kernels accept nothing else: a policy
// without a curve gets ErrNoClosedForm, so none silently walks buckets.
// Each builtin also declares the flag bits its build dispatches on at a
// technology (reads), so the kernels skip the curve builds a mask implies
// (Compile builds one row per distinct masked flags value);
// TestCurveReads and FuzzCurveReads check every mask against the builds.

import (
	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// curvePolicy is a policy the aggregate kernels can fold: one whose
// IntervalEnergy is piecewise affine in the interval length for every
// flags value, with pieces that also carry its IntervalMisses. build
// writes the curve for flags into an empty c, reading the technology
// through e; Compile builds a whole policy list through one env, so it
// neither copies the technology per curve nor computes b more than once.
// EnergyCurve is the same build over a fresh env, returned by value: the
// kernels' inline path calls it so that no pointer escapes through the
// dynamic call. build is unexported, so only this package's policies
// qualify; since Compile calls build, a type that embeds a builtin must
// not override EnergyCurve.
//
// reads returns the flag bits build reads at t: build(f) equals
// build(f & reads(t)) piece for piece, for every f. A mask may hold bits
// the curve does not need (DirtyAwareHybrid's Dirty at WBEnergy 0), never
// leave one out. It takes the technology by value, like EnergyCurve, so
// that nothing escapes through the dynamic call.
type curvePolicy interface {
	Policy
	EnergyCurve(t power.Technology, flags interval.Flags) Curve
	build(c *Curve, e *curveEnv, flags interval.Flags)
	reads(t power.Technology) interval.Flags
}

// curveEnv is what a curve build reads: the technology, by pointer, and
// its drowsy-sleep inflection point b, computed on first use and shared
// by every curve built through the same env.
type curveEnv struct {
	*power.Technology
	b     float64
	bErr  error
	bDone bool
}

// inflection returns InflectionPoints' b and error for e's technology.
func (e *curveEnv) inflection() (float64, error) {
	if !e.bDone {
		_, e.b, e.bErr = e.InflectionPoints()
		e.bDone = true
	}
	return e.b, e.bErr
}

// Shared building blocks, mirroring the helpers in policy.go. Each pushes
// its pieces onto c (see Curve.push), so it composes after a switch point
// as well as on an empty curve.

// active pushes the always-active piece, up to end.
func (c *Curve) active(e *curveEnv, end float64) {
	c.push(piece{end: end, slope: e.PActive})
}

// drowsyFor mirrors drowsyEnergyFor: active for L <= DrowsyOverhead,
// DrowsyEnergy past it.
func (c *Curve) drowsyFor(e *curveEnv) {
	oh := float64(e.Durations.DrowsyOverhead())
	c.active(e, oh)
	c.push(piece{end: inf, cnst: oh*e.PActive - oh*e.PDrowsy, slope: e.PDrowsy})
}

// leadingSleep mirrors leadingSleepEnergy: active when the wake cannot
// fit (L < S3+S4, i.e. the cut sits at wake-0.5 for the integer lengths
// distributions record), off-then-wake otherwise.
func (c *Curve) leadingSleep(e *curveEnv) {
	wake := float64(e.Durations.S3 + e.Durations.S4)
	c.active(e, wake-0.5)
	c.push(piece{end: inf, cnst: wake*e.PActive - wake*e.PSleep, slope: e.PSleep})
}

// untouchedSleep mirrors untouchedSleepEnergy: asleep throughout.
func (c *Curve) untouchedSleep(e *curveEnv) {
	c.push(piece{end: inf, slope: e.PSleep})
}

// sleepBits is what sleepFor reads at t: the edge bits, and Dirty only
// when a write-back costs something (writeBack adds 0 otherwise).
func sleepBits(t *power.Technology) interval.Flags {
	if t.WBEnergy != 0 {
		return interval.Leading | interval.Trailing | interval.Dirty
	}
	return interval.Leading | interval.Trailing
}

// writeBack is the write-back charge a dirty interval pays when gated.
func writeBack(e *curveEnv, flags interval.Flags) float64 {
	if flags&interval.Dirty != 0 {
		return e.WBEnergy
	}
	return 0
}

// sleepFor mirrors sleepEnergyFor's flag dispatch, including the
// write-back charge riding on trailing and interior dirty intervals;
// trailing intervals stay active for L < S1. Only the interior piece
// charges CD, so only it re-fetches.
func (c *Curve) sleepFor(e *curveEnv, flags interval.Flags) {
	wb := writeBack(e, flags)
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(e)
	case flags&interval.Leading != 0:
		c.leadingSleep(e)
	case flags&interval.Trailing != 0:
		s1 := float64(e.Durations.S1)
		c.push(piece{end: s1 - 0.5, cnst: wb, slope: e.PActive})
		c.push(piece{end: inf, cnst: s1*e.PActive - s1*e.PSleep + wb, slope: e.PSleep})
	default:
		ohS := float64(e.Durations.SleepOverhead())
		c.push(piece{end: inf, cnst: ohS*e.PActive - ohS*e.PSleep + e.CD + wb, slope: e.PSleep, misses: 1})
	}
}

// hybrid is the three-mode oracle's shape: the drowsy schedule up to
// theta, sleep past it.
func (c *Curve) hybrid(e *curveEnv, theta float64, flags interval.Flags) {
	c.drowsyFor(e)
	c.switchAt(theta)
	c.sleepFor(e, flags)
}

// The builtins: each EnergyCurve is one build into its named result.

// EnergyCurve returns the policy's curve for flags.
func (p AlwaysActive) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

func (AlwaysActive) build(c *Curve, e *curveEnv, _ interval.Flags) { c.active(e, inf) }

func (AlwaysActive) reads(power.Technology) interval.Flags { return 0 }

// EnergyCurve returns the policy's curve for flags.
func (p OPTDrowsy) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

func (OPTDrowsy) build(c *Curve, e *curveEnv, _ interval.Flags) { c.drowsyFor(e) }

func (OPTDrowsy) reads(power.Technology) interval.Flags { return 0 }

// EnergyCurve returns the policy's curve for flags.
func (p OPTSleep) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

// build applies the reference's clamp: theta never drops below the sleep
// overhead.
func (p OPTSleep) build(c *Curve, e *curveEnv, flags interval.Flags) {
	theta := float64(p.Theta)
	if m := float64(e.Durations.SleepOverhead()); theta < m {
		theta = m
	}
	c.active(e, theta)
	c.sleepFor(e, flags)
}

func (OPTSleep) reads(t power.Technology) interval.Flags { return sleepBits(&t) }

// EnergyCurve returns the policy's curve for flags.
func (p SleepDecay) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

// build: active until the line has been idle Theta cycles and (interior
// intervals) the wake fits, gated past that, with the decay counter
// leaking throughout.
func (p SleepDecay) build(c *Curve, e *curveEnv, flags interval.Flags) {
	d := e.Durations
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(e)
	case flags&interval.Leading != 0:
		c.leadingSleep(e)
	default:
		theta := float64(p.Theta)
		need := theta + float64(d.S1)
		if flags&interval.Trailing == 0 {
			need += float64(d.S3 + d.S4)
		}
		wb := writeBack(e, flags)
		c.active(e, need)
		if flags&interval.Trailing != 0 {
			c.push(piece{end: inf, cnst: theta*e.PActive + float64(d.S1)*e.PActive - (theta+float64(d.S1))*e.PSleep + wb, slope: e.PSleep})
		} else {
			wake := float64(d.S3+d.S4) * e.PActive
			c.push(piece{end: inf, cnst: theta*e.PActive + float64(d.S1)*e.PActive + wake + e.CD + wb - need*e.PSleep, slope: e.PSleep, misses: 1})
		}
	}
	c.plus(0, 0, e.CounterLeak, 0)
}

func (SleepDecay) reads(t power.Technology) interval.Flags { return sleepBits(&t) }

// EnergyCurve returns the policy's curve for flags.
func (p OPTHybrid) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

func (p OPTHybrid) build(c *Curve, e *curveEnv, flags interval.Flags) {
	b, err := e.inflection()
	if err != nil {
		c.active(e, inf)
		return
	}
	theta := b
	if p.SleepTheta > 0 {
		theta = float64(p.SleepTheta)
	}
	c.hybrid(e, theta, flags)
}

func (OPTHybrid) reads(t power.Technology) interval.Flags { return sleepBits(&t) }

// EnergyCurve returns the policy's curve for flags.
func (p PeriodicDrowsy) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

func (p PeriodicDrowsy) build(c *Curve, e *curveEnv, flags interval.Flags) {
	w := float64(p.Window)
	if w <= 0 {
		c.active(e, inf)
		return
	}
	wait := w / 2
	if flags&interval.Leading != 0 || flags&interval.Trailing != 0 {
		c.active(e, wait)
		c.push(piece{end: inf, cnst: wait*e.PActive - wait*e.PDrowsy + float64(e.Durations.D1)*e.PActive, slope: e.PDrowsy})
		return
	}
	oh := float64(e.Durations.DrowsyOverhead())
	c.active(e, wait+oh)
	c.push(piece{end: inf, cnst: wait*e.PActive + oh*e.PActive - (wait+oh)*e.PDrowsy, slope: e.PDrowsy})
}

// reads: a drowsy line keeps its data, so no write-back rides on it.
func (PeriodicDrowsy) reads(power.Technology) interval.Flags {
	return interval.Leading | interval.Trailing
}

// EnergyCurve returns the policy's curve for flags.
func (p PrefetchGuided) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

func (p PrefetchGuided) build(c *Curve, e *curveEnv, flags interval.Flags) {
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(e)
		return
	case flags&interval.Leading != 0:
		c.leadingSleep(e)
		return
	}
	b, err := e.inflection()
	switch {
	case err != nil:
		c.active(e, inf)
	case flags.Prefetchable():
		c.hybrid(e, b, flags)
	case p.PowerBiased:
		c.drowsyFor(e)
	default:
		c.active(e, inf)
	}
}

func (PrefetchGuided) reads(t power.Technology) interval.Flags {
	return sleepBits(&t) | interval.NLPrefetchable | interval.StridePrefetchable
}

// EnergyCurve returns the policy's curve for flags.
func (p AMCSleep) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

// build: the decay base curve with the tag array's share of any sleep
// savings given back.
func (p AMCSleep) build(c *Curve, e *curveEnv, flags interval.Flags) {
	SleepDecay{Theta: p.Theta}.build(c, e, flags)
	c.tagTransform(p.TagFraction, e.PActive)
}

func (AMCSleep) reads(t power.Technology) interval.Flags { return sleepBits(&t) }

// EnergyCurve returns the policy's curve for flags.
func (p DirtyAwareHybrid) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

// build mirrors DirtyAwareHybrid's per-flag crossover: dirty intervals
// sleep past b + WB/(PDrowsy-PSleep).
func (DirtyAwareHybrid) build(c *Curve, e *curveEnv, flags interval.Flags) {
	b, err := e.inflection()
	if err != nil {
		c.active(e, inf)
		return
	}
	if flags&interval.Dirty != 0 {
		b += e.WBEnergy / (e.PDrowsy - e.PSleep)
	}
	c.hybrid(e, b, flags)
}

// reads: Dirty moves the crossover even at WBEnergy 0, where it moves it
// by nothing; the mask may over-approximate.
func (DirtyAwareHybrid) reads(power.Technology) interval.Flags {
	return interval.Leading | interval.Trailing | interval.Dirty
}

// EnergyCurve returns the policy's curve for flags.
func (p DeadAwareHybrid) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

// build: the dead-interior branch gates wherever CD-free sleep beats the
// drowsy schedule (for L >= the sleep overhead) and never re-fetches,
// everything else follows OPT-Hybrid.
func (DeadAwareHybrid) build(c *Curve, e *curveEnv, flags interval.Flags) {
	b, err := e.inflection()
	switch {
	case err != nil:
		c.active(e, inf)
	case flags&interval.DeadEnd == 0 || !flags.Interior():
		c.hybrid(e, b, flags)
	default:
		ohS := float64(e.Durations.SleepOverhead())
		c.drowsyFor(e)
		base, n := c.p, c.n
		c.switchAt(ohS - 0.5)
		c.pickBelow(base[:n], piece{end: inf, cnst: ohS*e.PActive - ohS*e.PSleep + writeBack(e, flags), slope: e.PSleep})
	}
}

func (DeadAwareHybrid) reads(t power.Technology) interval.Flags {
	return sleepBits(&t) | interval.DeadEnd
}

// EnergyCurve returns the policy's curve for flags.
func (p Coloring) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

func (p Coloring) build(c *Curve, e *curveEnv, flags interval.Flags) {
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(e)
	case flags&interval.Leading != 0:
		c.leadingSleep(e)
	default:
		c.active(e, p.regionTheta(e.inflection()))
		c.sleepFor(e, flags)
	}
}

func (Coloring) reads(t power.Technology) interval.Flags { return sleepBits(&t) }

// EnergyCurve returns the policy's curve for flags.
func (p WayMemo) EnergyCurve(t power.Technology, flags interval.Flags) (c Curve) {
	p.build(&c, &curveEnv{Technology: &t}, flags)
	return c
}

func (p WayMemo) build(c *Curve, e *curveEnv, flags interval.Flags) {
	switch {
	case flags&interval.Untouched == interval.Untouched:
		c.untouchedSleep(e)
		return
	case flags&interval.Leading != 0:
		c.leadingSleep(e)
		return
	}
	if !flags.Prefetchable() {
		c.active(e, inf)
		return
	}
	b, err := e.inflection()
	if err != nil {
		c.active(e, inf)
		return
	}
	c.drowsyFor(e)
	c.switchAt(b)
	from := c.n
	c.sleepFor(e, flags)
	if flags.Interior() {
		// A mispredicted pre-wake adds one more CD-equivalent re-fetch.
		c.plus(from, (1-p.Accuracy)*e.CD, 0, 1-p.Accuracy)
	}
}

func (WayMemo) reads(t power.Technology) interval.Flags {
	return sleepBits(&t) | interval.NLPrefetchable | interval.StridePrefetchable
}
