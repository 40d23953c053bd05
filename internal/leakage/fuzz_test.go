package leakage

import (
	"errors"
	"math"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// fuzzDistribution decodes a byte stream into a distribution: five bytes
// per bucket — three of length (biased so the dense rows, the threshold
// neighborhoods, and the deep tail all get coverage), one of flags, one
// of count. An empty stream yields an empty distribution, exercising the
// ErrEmptyDistribution parity.
func fuzzDistribution(data []byte) *interval.Distribution {
	d := interval.NewDistribution(64, 1<<22)
	for len(data) >= 5 {
		raw := uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16
		length := raw%(1<<21) + 1
		flags := interval.Flags(data[3] % 64)
		count := uint64(data[4]%64) + 1
		d.Add(length, flags, count)
		data = data[5:]
	}
	return d
}

// FuzzEvaluateFastPath throws randomized distributions and randomized
// registered policy specs at the aggregate fast path — single-policy
// EvaluateMany, and for induced misses an inline-compiled
// Compiled.EvaluateMisses — and asserts agreement with the reference
// walk: same error sentinels, ulp-scale energy and induced-miss agreement. Wired into
// `make fuzz-regress` so the committed corpus replays in CI.
func FuzzEvaluateFastPath(f *testing.F) {
	f.Add(uint8(0), uint64(0), 0.0, []byte{})
	f.Add(uint8(2), uint64(1057), 0.9, []byte{37, 0, 0, 1, 5, 0, 20, 0, 9, 3})
	f.Add(uint8(4), uint64(10000), 0.06, []byte{255, 255, 31, 63, 63, 5, 0, 0, 0, 1})
	f.Add(uint8(9), uint64(2000), 0.5, []byte{36, 0, 0, 2, 1, 38, 0, 0, 2, 1, 232, 3, 0, 4, 7})

	techs := power.Technologies()
	schemes := DefaultRegistry().Schemes()

	f.Fuzz(func(t *testing.T, schemeIdx uint8, up uint64, fp float64, data []byte) {
		reg := schemes[int(schemeIdx)%len(schemes)]
		tech := techs[int(up)%len(techs)]

		// Fill every declared parameter from the fuzzed scalars, clamped
		// to the kind's sane range so Build rarely rejects.
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
		pol, err := DefaultRegistry().Build(PolicySpec{Scheme: reg.Name, Params: params}, tech)
		if err != nil {
			t.Skip() // factory rejected the clamped params; nothing to check
		}

		d := fuzzDistribution(data)
		agg := interval.NewAggregates(d)

		ref, refErr := Evaluate(tech, d, pol)
		fastAll, fastErr := EvaluateMany(tech, agg, []Policy{pol})
		if (refErr == nil) != (fastErr == nil) {
			t.Fatalf("%s: error mismatch: ref %v, fast %v", pol.Name(), refErr, fastErr)
		}
		if refErr != nil {
			if !errors.Is(refErr, ErrEmptyDistribution) || !errors.Is(fastErr, ErrEmptyDistribution) {
				t.Fatalf("%s: unexpected sentinels: ref %v, fast %v", pol.Name(), refErr, fastErr)
			}
			return
		}
		fast := fastAll[0]
		if fast.Policy != ref.Policy || fast.Baseline != ref.Baseline {
			t.Fatalf("%s: metadata mismatch: %+v vs %+v", pol.Name(), fast, ref)
		}
		if d := math.Abs(fast.Energy - ref.Energy); d > 1e-12 &&
			d > 1e-9*math.Max(math.Abs(fast.Energy), math.Abs(ref.Energy)) {
			t.Fatalf("%s @%s: energy fast %.17g, ref %.17g", pol.Name(), tech.Name, fast.Energy, ref.Energy)
		}

		refMiss, err := InducedMissRate(tech, d, pol)
		if err != nil {
			t.Fatalf("%s: InducedMissRate: %v", pol.Name(), err)
		}
		cp, err := Compile(tech, []Policy{pol})
		if err != nil {
			t.Fatalf("%s: Compile: %v", pol.Name(), err)
		}
		_, rates, err := cp.EvaluateMisses(agg)
		if err != nil {
			t.Fatalf("%s: EvaluateMisses: %v", pol.Name(), err)
		}
		if d := math.Abs(rates[0] - refMiss); d > 1e-12 && d > 1e-9*math.Abs(refMiss) {
			t.Fatalf("%s: miss rate fast %.17g, ref %.17g", pol.Name(), rates[0], refMiss)
		}
	})
}
