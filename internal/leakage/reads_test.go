package leakage

import (
	"math"
	"slices"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// sameCurve reports whether a and b are the same curve piece for piece,
// or both invalid.
func sameCurve(a, b *Curve) bool {
	return a.n == b.n && (a.n <= 0 || slices.Equal(a.p[:a.n], b.p[:b.n]))
}

// checkReads fails t unless p's curve for every flags value equals its
// curve for that value masked by p's reads at tech: the contract the
// kernels skip curve builds on.
func checkReads(t *testing.T, tech power.Technology, p Policy) {
	t.Helper()
	cp := p.(curvePolicy)
	reads := cp.reads(tech)
	for f := interval.Flags(0); f < interval.NumFlags; f++ {
		got, want := cp.EnergyCurve(tech, f), cp.EnergyCurve(tech, f&reads)
		if !sameCurve(&got, &want) {
			t.Fatalf("%s @%s (WBEnergy %g): reads %v, but the curve for %v is %+v (n %d) and for %v %+v (n %d)",
				p.Name(), tech.Name, tech.WBEnergy, reads, f, got.p[:max(got.n, 0)], got.n, f&reads, want.p[:max(want.n, 0)], want.n)
		}
	}
}

// TestCurveReads pins every builtin's flag mask to its builds: for every
// testPolicies entry at every builtin node and write-back ablation node,
// and for all 64 flags values, the curve for f equals the curve for f
// masked by the policy's reads. A mask that leaves out a bit the curve
// dispatches on (OPT-Sleep's Dirty past WBEnergy 0, DeadAwareHybrid's
// DeadEnd) fails here. At the builtin nodes the paper's sleep, drowsy and
// hybrid schemes read the edge bits at most, which is what lets Compile
// build one row per edge kind for their ladders.
func TestCurveReads(t *testing.T) {
	for _, tech := range closedFormTechnologies() {
		for _, p := range testPolicies(tech) {
			checkReads(t, tech, p)
		}
		if tech.WBEnergy != 0 {
			continue
		}
		for _, p := range []Policy{AlwaysActive{}, OPTDrowsy{}, OPTSleep{Theta: 10000}, SleepDecay{Theta: 10000}, OPTHybrid{}, AMCSleep{Theta: 10000, TagFraction: 0.06}} {
			if r := p.(curvePolicy).reads(tech); r&^(interval.Leading|interval.Trailing) != 0 {
				t.Errorf("%s @%s: reads %v, want the edge bits at most", p.Name(), tech.Name, r)
			}
		}
	}
}

// fuzzTechnology derives a valid technology from fuzzed scalars: active
// power pa, drowsy and sleep powers as fractions of the mode above, CD and
// WBEnergy as magnitudes, and every duration from its own byte. ok is
// false when the scalars name no valid technology.
func fuzzTechnology(pa, drowsy, sleep, cd, wb float64, dur [5]uint8) (tech power.Technology, ok bool) {
	unit := func(x float64) float64 { return math.Abs(math.Mod(x, 1)) }
	tech = power.Technology{
		Name:     "fuzz",
		PActive:  math.Abs(pa),
		CD:       math.Abs(cd),
		WBEnergy: math.Abs(wb),
		Durations: power.Durations{
			S1: int(dur[0]) + 1, S3: int(dur[1]) + 1, S4: int(dur[2]),
			D1: int(dur[3]) + 1, D3: int(dur[4]) + 1,
		},
	}
	tech.PDrowsy = tech.PActive * unit(drowsy)
	tech.PSleep = tech.PDrowsy * unit(sleep)
	tech.CounterLeak = tech.PActive * unit(drowsy*sleep)
	for _, x := range []float64{tech.PActive, tech.PDrowsy, tech.PSleep, tech.CD, tech.WBEnergy, tech.CounterLeak} {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return tech, false
		}
	}
	return tech, tech.Validate() == nil
}

// FuzzCurveReads checks the mask contract away from the calibrated nodes:
// random powers, CD, WBEnergy (zero and not) and transition durations,
// for every testPolicies entry and a registry-built policy of a fuzzed
// scheme with fuzzed parameters. Wired into `make fuzz-regress`.
func FuzzCurveReads(f *testing.F) {
	d := power.Default()
	pd := d.PDrowsy / d.PActive
	ps := d.PSleep / d.PDrowsy
	f.Add(d.PActive, pd, ps, d.CD, 0.0, uint8(29), uint8(2), uint8(4), uint8(2), uint8(2), uint8(2), uint64(1057), 0.9)
	f.Add(d.PActive, pd, ps, d.CD, 0.5*d.CD, uint8(29), uint8(2), uint8(4), uint8(2), uint8(2), uint8(8), uint64(10000), 0.06)
	f.Add(1.0, 0.5, 0.5, 0.0, 3.0, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(9), uint64(1), 1.0)
	f.Add(2.5, 0.9, 0.01, 1e6, 1e-3, uint8(200), uint8(40), uint8(0), uint8(7), uint8(100), uint8(10), uint64(0), 0.0)

	schemes := DefaultRegistry().Schemes()
	f.Fuzz(func(t *testing.T, pa, drowsy, sleep, cd, wb float64, s1, s3, s4, d1, d3, schemeIdx uint8, up uint64, fp float64) {
		tech, ok := fuzzTechnology(pa, drowsy, sleep, cd, wb, [5]uint8{s1, s3, s4, d1, d3})
		if !ok {
			t.Skip()
		}
		pols := testPolicies(tech)
		reg := schemes[int(schemeIdx)%len(schemes)]
		params := make(Params, len(reg.Params))
		for _, sch := range reg.Params {
			switch sch.Kind {
			case UintParam:
				params[sch.Name] = Uint(up % (1 << 22))
			case FloatParam:
				v := math.Abs(fp)
				if !(v <= 1) { // also catches NaN
					v = 0.5
				}
				params[sch.Name] = Float(v)
			case BoolParam:
				params[sch.Name] = Bool(up&1 == 1)
			}
		}
		if p, err := DefaultRegistry().Build(PolicySpec{Scheme: reg.Name, Params: params}, tech); err == nil {
			pols = append(pols, p)
		}
		for _, p := range pols {
			checkReads(t, tech, p)
		}
	})
}
