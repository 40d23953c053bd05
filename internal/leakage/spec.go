package leakage

// The structured policy-spec surface of the registry API: a PolicySpec is
// a scheme name plus a typed parameter map, with a canonical string form
// ("scheme" or "scheme@key=value,key=value", keys sorted) and JSON
// marshalling, so the serving layer, the CLIs, and the test corpus all
// speak the same grammar. Parameter values are a small sum type — uint64,
// float64, or bool — rather than bare float64, because the legacy
// "scheme@theta" spellings promise exact uint64 round-trips (theta =
// 18446744073709551615 must parse to exactly MaxUint64, which a float64
// cannot represent).

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParamKind is the declared type of one policy parameter.
type ParamKind uint8

const (
	// UintParam is a non-negative integer parameter (cycle counts,
	// region counts); parsed with the full uint64 range.
	UintParam ParamKind = iota
	// FloatParam is a real-valued parameter (fractions, accuracies).
	FloatParam
	// BoolParam is a flag parameter.
	BoolParam
)

// String implements fmt.Stringer.
func (k ParamKind) String() string {
	switch k {
	case UintParam:
		return "uint"
	case FloatParam:
		return "float"
	case BoolParam:
		return "bool"
	default:
		return fmt.Sprintf("ParamKind(%d)", uint8(k))
	}
}

// MarshalJSON renders the kind as its canonical name.
func (k ParamKind) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, k.String()), nil
}

// ParamSchema declares one parameter a scheme accepts: its name, kind,
// one-line doc, and the human-readable default (defaults are often
// technology-dependent — "the drowsy-sleep inflection point b" — so the
// schema documents them rather than fixing a numeric value).
type ParamSchema struct {
	Name    string    `json:"name"`
	Kind    ParamKind `json:"kind"`
	Doc     string    `json:"doc"`
	Default string    `json:"default,omitempty"`
}

// ParamValue is one typed parameter value: exactly one of uint64, float64,
// or bool, preserving uint64 values bit-exactly (see the package note on
// why float64 alone would not do).
type ParamValue struct {
	kind ParamKind
	u    uint64
	f    float64
	b    bool
}

// Uint builds a uint-kinded value.
func Uint(v uint64) ParamValue { return ParamValue{kind: UintParam, u: v} }

// Float builds a float-kinded value.
func Float(v float64) ParamValue { return ParamValue{kind: FloatParam, f: v} }

// Bool builds a bool-kinded value.
func Bool(v bool) ParamValue { return ParamValue{kind: BoolParam, b: v} }

// Kind reports the value's kind. The zero ParamValue is Uint(0).
func (v ParamValue) Kind() ParamKind { return v.kind }

// AsUint returns the value as a uint64: exact for UintParam, converted for
// a FloatParam that holds an exact non-negative integer. ok is false
// otherwise.
func (v ParamValue) AsUint() (u uint64, ok bool) {
	switch v.kind {
	case UintParam:
		return v.u, true
	case FloatParam:
		// Exact integral floats convert losslessly below 2^53; beyond it
		// the float cannot distinguish neighbors, so refuse.
		if v.f >= 0 && v.f == math.Trunc(v.f) && v.f < 1<<53 {
			return uint64(v.f), true
		}
	}
	return 0, false
}

// AsFloat returns the value as a float64: exact for FloatParam, converted
// for UintParam (lossy above 2^53, as any numeric sweep is). ok is false
// for bools.
func (v ParamValue) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case UintParam:
		return float64(v.u), true
	case FloatParam:
		return v.f, true
	}
	return 0, false
}

// AsBool returns the value as a bool; ok is false for numeric kinds.
func (v ParamValue) AsBool() (b, ok bool) {
	if v.kind == BoolParam {
		return v.b, true
	}
	return false, false
}

// String renders the canonical text form: plain digits for uints, the
// shortest round-tripping decimal for floats, true/false for bools.
func (v ParamValue) String() string {
	switch v.kind {
	case UintParam:
		return strconv.FormatUint(v.u, 10)
	case FloatParam:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case BoolParam:
		return strconv.FormatBool(v.b)
	default:
		return fmt.Sprintf("ParamValue(%d)", uint8(v.kind))
	}
}

// MarshalJSON renders uints and floats as JSON numbers and bools as JSON
// booleans, matching the canonical text form.
func (v ParamValue) MarshalJSON() ([]byte, error) {
	switch v.kind {
	case UintParam:
		return strconv.AppendUint(nil, v.u, 10), nil
	case FloatParam:
		if math.IsNaN(v.f) || math.IsInf(v.f, 0) {
			return nil, fmt.Errorf("leakage: parameter value %v is not representable in JSON", v.f)
		}
		return strconv.AppendFloat(nil, v.f, 'g', -1, 64), nil
	case BoolParam:
		return strconv.AppendBool(nil, v.b), nil
	default:
		return nil, fmt.Errorf("leakage: invalid parameter kind %d", v.kind)
	}
}

// UnmarshalJSON accepts JSON numbers (integers become UintParam when they
// fit uint64 exactly, everything else FloatParam) and booleans. Strings
// are rejected: parameters are typed values, not spellings.
func (v *ParamValue) UnmarshalJSON(data []byte) error {
	s := strings.TrimSpace(string(data))
	switch s {
	case "true":
		*v = Bool(true)
		return nil
	case "false":
		*v = Bool(false)
		return nil
	}
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		*v = Uint(u)
		return nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("%w: %s is not a number or boolean", ErrBadParam, s)
	}
	*v = Float(f)
	return nil
}

// parseParamValue parses the text form of one parameter under its declared
// kind, with the same strconv semantics the legacy "@theta" suffix used
// (base-10 uint64: "0x10" and "-1" fail, MaxUint64 parses exactly).
func parseParamValue(kind ParamKind, text string) (ParamValue, error) {
	switch kind {
	case UintParam:
		u, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return ParamValue{}, fmt.Errorf("parsing %q as uint: %w", text, err)
		}
		return Uint(u), nil
	case FloatParam:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return ParamValue{}, fmt.Errorf("parsing %q as float: %w", text, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return ParamValue{}, fmt.Errorf("parsing %q as float: not finite", text)
		}
		return Float(f), nil
	case BoolParam:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return ParamValue{}, fmt.Errorf("parsing %q as bool: %w", text, err)
		}
		return Bool(b), nil
	default:
		return ParamValue{}, fmt.Errorf("invalid parameter kind %d", kind)
	}
}

// Params is a policy's typed parameter map, keyed by declared parameter
// name.
type Params map[string]ParamValue

// Uint returns the named parameter as a uint64 (see ParamValue.AsUint);
// ok is false when absent or not convertible.
func (p Params) Uint(name string) (u uint64, ok bool) {
	v, present := p[name]
	if !present {
		return 0, false
	}
	return v.AsUint()
}

// Float returns the named parameter as a float64; ok is false when absent
// or boolean.
func (p Params) Float(name string) (f float64, ok bool) {
	v, present := p[name]
	if !present {
		return 0, false
	}
	return v.AsFloat()
}

// Bool returns the named parameter as a bool; ok is false when absent or
// numeric.
func (p Params) Bool(name string) (b, ok bool) {
	v, present := p[name]
	if !present {
		return false, false
	}
	return v.AsBool()
}

// sortedKeys returns the parameter names in ascending order, for the
// deterministic canonical form, appended to buf[:0] (nil allocates).
func (p Params) sortedKeys(buf []string) []string {
	keys := buf[:0]
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PolicySpec is a structured policy reference: a scheme name plus typed
// parameters. Build it by hand, parse it from the canonical grammar with
// Registry.ParseSpec, or unmarshal it from JSON; Registry.Build turns it
// into a Policy.
type PolicySpec struct {
	Scheme string `json:"scheme"`
	Params Params `json:"params,omitempty"`
}

// String renders the canonical text form: "scheme" when there are no
// parameters, otherwise "scheme@key=value,key=value" with keys sorted.
// ParseSpec of the result yields an equal spec.
func (s PolicySpec) String() string {
	if len(s.Params) == 0 {
		return s.Scheme
	}
	parts := make([]string, 0, len(s.Params))
	for _, k := range s.Params.sortedKeys(nil) {
		parts = append(parts, k+"="+s.Params[k].String())
	}
	return s.Scheme + "@" + strings.Join(parts, ",")
}

// Equal reports whether two specs name the same scheme with the same
// parameter values.
func (s PolicySpec) Equal(o PolicySpec) bool {
	if s.Scheme != o.Scheme || len(s.Params) != len(o.Params) {
		return false
	}
	for k, v := range s.Params {
		if ov, ok := o.Params[k]; !ok || ov != v {
			return false
		}
	}
	return true
}
