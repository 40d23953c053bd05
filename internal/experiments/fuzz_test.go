package experiments

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"leakbound/internal/leakage"
	"leakbound/internal/power"
)

// FuzzParsePolicy throws arbitrary query spellings at the policy parser:
// it must never panic, every failure must be matchable as
// ErrUnknownPolicy (the serving layer maps that sentinel to a 400), and
// parsing must be deterministic — the same spec yields the same policy.
// Specs accepted by the structured registry grammar additionally
// round-trip through their canonical String() spelling to an equal spec
// and a deep-equal policy.
func FuzzParsePolicy(f *testing.F) {
	for _, name := range PolicyNames() {
		f.Add(name)
		f.Add(name + "@5088")
	}
	f.Add("")
	f.Add("  Opt-Sleep@2048  ")
	f.Add("opt-sleep@")
	f.Add("opt-sleep@-1")
	f.Add("opt-sleep@18446744073709551615")
	f.Add("opt-sleep@18446744073709551616") // one past MaxUint64
	f.Add("opt-hybrid@0")
	f.Add("periodic-drowsy@")
	f.Add("bogus@@3")
	f.Add("@123")
	f.Add("opt-sleep@0x10")
	f.Add("active@1@2")
	// The structured spec grammar: named parameters, lists, and the legacy
	// ignored-theta compat spelling.
	f.Add("opt-sleep@theta=8192")
	f.Add("coloring@colors=4,frames=512")
	f.Add("coloring@16")
	f.Add("waymemo@accuracy=0.9")
	f.Add("amc@theta=8000,tag-fraction=0.06")
	f.Add("opt-sleep@theta=1,theta=2")
	f.Add("coloring@bogus=1")
	f.Add("waymemo@accuracy=nan")
	f.Add("active@5")
	f.Add("opt-sleep@=5")

	tech := power.Default()
	f.Fuzz(func(t *testing.T, spec string) {
		pol, err := ParsePolicy(spec, tech)
		if err != nil {
			if !errors.Is(err, ErrUnknownPolicy) {
				t.Fatalf("ParsePolicy(%q) error %v is not matchable as ErrUnknownPolicy", spec, err)
			}
			return
		}
		if pol == nil || pol.Name() == "" {
			t.Fatalf("ParsePolicy(%q) succeeded with an unusable policy %#v", spec, pol)
		}
		// Deterministic: a second parse of the same spec produces the same
		// policy.
		again, err := ParsePolicy(spec, tech)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) second parse failed: %v", spec, err)
		}
		if again.Name() != pol.Name() {
			t.Fatalf("ParsePolicy(%q) is nondeterministic: %q then %q", spec, pol.Name(), again.Name())
		}
		// Canonical spellings are case- and whitespace-insensitive.
		folded, err := ParsePolicy(strings.ToUpper(" "+spec+" "), tech)
		if err != nil || folded.Name() != pol.Name() {
			t.Fatalf("ParsePolicy(%q) not case/space-insensitive: %v %v", spec, folded, err)
		}
		// Specs that parse under the structured grammar round-trip through
		// the canonical String() spelling to an equal spec and policy. (A
		// spec accepted only through the legacy ignored-theta compat path,
		// e.g. "active@5", has no structured parse and is exempt.)
		ps, specErr := ParsePolicySpec(spec)
		if specErr != nil {
			return
		}
		back, err := ParsePolicySpec(ps.String())
		if err != nil {
			t.Fatalf("canonical %q of %q does not reparse: %v", ps.String(), spec, err)
		}
		if back.String() != ps.String() {
			t.Fatalf("canonical spelling unstable: %q -> %q", ps.String(), back.String())
		}
		canonical, err := BuildPolicy(back, tech)
		if err != nil {
			t.Fatalf("canonical %q of %q does not build: %v", ps.String(), spec, err)
		}
		if !reflect.DeepEqual(canonical, pol) {
			t.Fatalf("canonical %q builds %#v, original %q builds %#v", ps.String(), canonical, spec, pol)
		}
	})
}

// sweepValueBytes is the encoded size of one fuzzed sweep value: a kind
// byte and a little-endian uint64 payload.
const sweepValueBytes = 9

// decodeSweepValues reads raw as a list of mixed-kind parameter values.
// Floats are kept finite, as every parser of values does.
func decodeSweepValues(raw []byte) []leakage.ParamValue {
	var out []leakage.ParamValue
	for ; len(raw) >= sweepValueBytes; raw = raw[sweepValueBytes:] {
		u := binary.LittleEndian.Uint64(raw[1:sweepValueBytes])
		switch raw[0] % 4 {
		case 0:
			out = append(out, leakage.Uint(u))
		case 1:
			if f := math.Float64frombits(u); !math.IsNaN(f) && !math.IsInf(f, 0) {
				out = append(out, leakage.Float(f))
			}
		case 2:
			out = append(out, leakage.Bool(u&1 == 1))
		default: // a small float, often integral, often in [0, 1]
			out = append(out, leakage.Float(float64(int64(u)%20000)/8))
		}
	}
	return out
}

// encodeSweepValues is decodeSweepValues' inverse, for the seed corpus.
func encodeSweepValues(values ...leakage.ParamValue) []byte {
	var raw []byte
	for _, v := range values {
		var kind byte
		var u uint64
		switch v.Kind() {
		case leakage.UintParam:
			u, _ = v.AsUint()
		case leakage.FloatParam:
			kind = 1
			f, _ := v.AsFloat()
			u = math.Float64bits(f)
		case leakage.BoolParam:
			kind = 2
			if b, _ := v.AsBool(); b {
				u = 1
			}
		}
		raw = binary.LittleEndian.AppendUint64(append(raw, kind), u)
	}
	return raw
}

// FuzzSweepMatchesBuildPolicy pins the sweep path to per-value
// BuildPolicy: for a registered scheme, one of its declared parameters
// (or, for param index past them, the positional one) and a list of
// mixed-kind values, resolveSweepPolicies must return deep-equal
// policies when every value builds, and otherwise exactly the error
// BuildPolicy returns for the first value that fails.
func FuzzSweepMatchesBuildPolicy(f *testing.F) {
	mixed := encodeSweepValues(
		leakage.Uint(0), leakage.Uint(5088), leakage.Uint(math.MaxUint64),
		leakage.Float(0.5), leakage.Float(8192), leakage.Float(1.5), leakage.Float(-1),
		leakage.Bool(true),
	)
	inRange := encodeSweepValues(leakage.Uint(1), leakage.Uint(8), leakage.Float(0), leakage.Float(1))
	outOfRange := encodeSweepValues(leakage.Float(0.25), leakage.Uint(2), leakage.Uint(0), leakage.Float(2))
	schemes := leakage.DefaultRegistry().Schemes()
	for si, reg := range schemes {
		for pi := 0; pi <= len(reg.Params); pi++ {
			for _, raw := range [][]byte{mixed, inRange, outOfRange} {
				f.Add(uint8(si), uint8(pi), uint8(si), raw)
			}
		}
	}
	techs := power.Technologies()
	f.Fuzz(func(t *testing.T, si, pi, ti uint8, raw []byte) {
		reg := schemes[int(si)%len(schemes)]
		if len(reg.Params) == 0 {
			return
		}
		tech := techs[int(ti)%len(techs)]
		param, declared := "", reg.Positional
		if i := int(pi) % (len(reg.Params) + 1); i < len(reg.Params) {
			param, declared = reg.Params[i].Name, reg.Params[i].Name
		}
		values := decodeSweepValues(raw)
		if declared == "" || len(values) == 0 {
			if _, _, err := resolveSweepPolicies(reg.Name, param, tech, values); err == nil {
				t.Fatalf("sweep of %s param %q over %d values succeeded", reg.Name, param, len(values))
			}
			return
		}
		pols, name, err := resolveSweepPolicies(reg.Name, param, tech, values)
		want := make([]leakage.Policy, len(values))
		for vi, v := range values {
			pol, wantErr := BuildPolicy(leakage.PolicySpec{Scheme: reg.Name, Params: leakage.Params{declared: v}}, tech)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("sweep of %s %s: error %v, want value %d's BuildPolicy error %v", reg.Name, declared, err, vi, wantErr)
				}
				if !errors.Is(err, ErrUnknownPolicy) {
					t.Fatalf("sweep error %v is not matchable as ErrUnknownPolicy", err)
				}
				return
			}
			want[vi] = pol
		}
		if err != nil || name != reg.Name {
			t.Fatalf("sweep of %s %s: name %q, error %v; every value builds", reg.Name, declared, name, err)
		}
		if !reflect.DeepEqual(pols, want) {
			t.Fatalf("sweep of %s %s over %v builds %#v, BuildPolicy %#v", reg.Name, declared, values, pols, want)
		}
	})
}
