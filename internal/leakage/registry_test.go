package leakage

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

func TestRegistryRegisterValidation(t *testing.T) {
	r := NewRegistry()
	ok := Registration{
		Name:    "custom",
		Factory: func(power.Technology, Params) (Policy, error) { return AlwaysActive{}, nil },
	}
	if err := r.Register(ok); err != nil {
		t.Fatalf("valid registration rejected: %v", err)
	}
	if err := r.Register(ok); !errors.Is(err, ErrDuplicateScheme) {
		t.Errorf("duplicate registration error = %v, want ErrDuplicateScheme", err)
	}
	cases := []Registration{
		{Factory: ok.Factory},                                      // empty name
		{Name: "Upper", Factory: ok.Factory},                       // not lowercase
		{Name: "has space", Factory: ok.Factory},                   // bad char
		{Name: "has@at", Factory: ok.Factory},                      // grammar char
		{Name: "nofactory"},                                        // nil factory
		{Name: "badpos", Factory: ok.Factory, Positional: "theta"}, // undeclared positional
		{Name: "dupparam", Factory: ok.Factory, Params: []ParamSchema{
			{Name: "x", Kind: UintParam}, {Name: "x", Kind: UintParam}}},
	}
	for _, reg := range cases {
		if err := r.Register(reg); !errors.Is(err, ErrBadParam) {
			t.Errorf("Register(%+v) error = %v, want ErrBadParam", reg.Name, err)
		}
	}
}

func TestRegistryNamesOrderAndLookup(t *testing.T) {
	names := PolicyNames()
	// The first eight names are the legacy experiments.PolicyNames list in
	// its historical order; every pre-registry spelling must keep parsing.
	legacy := []string{"active", "opt-drowsy", "opt-sleep", "opt-hybrid",
		"sleep-decay", "periodic-drowsy", "prefetch-a", "prefetch-b"}
	if len(names) < len(legacy) {
		t.Fatalf("registry has %d schemes, want >= %d", len(names), len(legacy))
	}
	for i, want := range legacy {
		if names[i] != want {
			t.Errorf("PolicyNames()[%d] = %q, want %q", i, names[i], want)
		}
	}
	if len(names) < 8 {
		t.Errorf("acceptance: registry lists %d schemes, want >= 8", len(names))
	}
	for _, name := range names {
		reg, ok := DefaultRegistry().Lookup(name)
		if !ok {
			t.Errorf("Lookup(%q) missing", name)
			continue
		}
		if reg.Doc == "" {
			t.Errorf("scheme %q has no doc line", name)
		}
		if reg.Positional != "" {
			if _, ok := reg.Schema(reg.Positional); !ok {
				t.Errorf("scheme %q positional %q undeclared", name, reg.Positional)
			}
		}
	}
	if got := DefaultRegistry().Schemes(); len(got) != len(names) {
		t.Errorf("Schemes() has %d entries, Names() has %d", len(got), len(names))
	}
}

func TestParseSpecGrammar(t *testing.T) {
	r := DefaultRegistry()
	cases := []struct {
		in   string
		want PolicySpec
	}{
		{"active", PolicySpec{Scheme: "active"}},
		{"  OPT-Hybrid  ", PolicySpec{Scheme: "opt-hybrid"}},
		{"opt-sleep@8192", PolicySpec{Scheme: "opt-sleep", Params: Params{"theta": Uint(8192)}}},
		{"opt-sleep@theta=8192", PolicySpec{Scheme: "opt-sleep", Params: Params{"theta": Uint(8192)}}},
		{"OPT-SLEEP@THETA=8192", PolicySpec{Scheme: "opt-sleep", Params: Params{"theta": Uint(8192)}}},
		{"opt-sleep@18446744073709551615",
			PolicySpec{Scheme: "opt-sleep", Params: Params{"theta": Uint(math.MaxUint64)}}},
		{"coloring@colors=4,frames=512",
			PolicySpec{Scheme: "coloring", Params: Params{"colors": Uint(4), "frames": Uint(512)}}},
		{"waymemo@0.75", PolicySpec{Scheme: "waymemo", Params: Params{"accuracy": Float(0.75)}}},
		{"waymemo@accuracy=0.75", PolicySpec{Scheme: "waymemo", Params: Params{"accuracy": Float(0.75)}}},
		{"amc@theta=8000,tag-fraction=0.06",
			PolicySpec{Scheme: "amc", Params: Params{"theta": Uint(8000), "tag-fraction": Float(0.06)}}},
	}
	for _, c := range cases {
		got, err := r.ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// The canonical string form reparses to an equal spec.
		again, err := r.ParseSpec(got.String())
		if err != nil || !again.Equal(got) {
			t.Errorf("ParseSpec(String(%q)=%q) = %+v, %v; want %+v", c.in, got.String(), again, err, got)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	r := DefaultRegistry()
	unknown := []string{"", "bogus", "bogus@5", "@123"}
	for _, in := range unknown {
		if _, err := r.ParseSpec(in); !errors.Is(err, ErrUnknownScheme) {
			t.Errorf("ParseSpec(%q) error = %v, want ErrUnknownScheme", in, err)
		}
	}
	badParam := []string{
		"active@5",                       // no positional parameter
		"opt-sleep@",                     // empty positional
		"opt-sleep@-1",                   // uints are non-negative
		"opt-sleep@0x10",                 // base-10 only
		"opt-sleep@18446744073709551616", // one past MaxUint64
		"opt-sleep@bogus=1",              // unknown key
		"opt-sleep@theta=1,theta=2",      // duplicate key
		"opt-sleep@theta",                // missing value: "theta" is not a uint
		"opt-sleep@=5",                   // empty key
		"waymemo@accuracy=zzz",           // bad float
		"coloring@colors=4,bogus=1",
	}
	for _, in := range badParam {
		if _, err := r.ParseSpec(in); !errors.Is(err, ErrBadParam) {
			t.Errorf("ParseSpec(%q) error = %v, want ErrBadParam", in, err)
		}
	}
}

func TestBuildDefaultsMatchLegacy(t *testing.T) {
	tech := power.Default()
	r := DefaultRegistry()
	_, b, err := tech.InflectionPoints()
	if err != nil {
		t.Fatal(err)
	}
	wantTheta := uint64(b + 0.5)

	pol, err := r.Build(PolicySpec{Scheme: "opt-sleep"}, tech)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.(OPTSleep).Theta; got != wantTheta {
		t.Errorf("opt-sleep default theta = %d, want inflection b = %d", got, wantTheta)
	}
	pol, err = r.Build(PolicySpec{Scheme: "opt-sleep", Params: Params{"theta": Uint(0)}}, tech)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.(OPTSleep).Theta; got != wantTheta {
		t.Errorf("opt-sleep@0 theta = %d, want inflection default %d", got, wantTheta)
	}
	pol, err = r.Build(PolicySpec{Scheme: "sleep-decay"}, tech)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.(SleepDecay).Theta; got != wantTheta {
		t.Errorf("sleep-decay default theta = %d, want %d", got, wantTheta)
	}
	pol, err = r.Build(PolicySpec{Scheme: "periodic-drowsy"}, tech)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.(PeriodicDrowsy).Window; got != 2000 {
		t.Errorf("periodic-drowsy default window = %d, want 2000", got)
	}
	pol, err = r.Build(PolicySpec{Scheme: "opt-hybrid"}, tech)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.(OPTHybrid).SleepTheta; got != 0 {
		t.Errorf("opt-hybrid default override = %d, want 0", got)
	}
	// MaxUint64 survives construction exactly.
	pol, err = r.Build(PolicySpec{Scheme: "opt-sleep",
		Params: Params{"theta": Uint(math.MaxUint64)}}, tech)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.(OPTSleep).Theta; got != math.MaxUint64 {
		t.Errorf("MaxUint64 theta = %d, lost exactness", got)
	}
}

func TestBuildValidationErrors(t *testing.T) {
	tech := power.Default()
	r := DefaultRegistry()
	if _, err := r.Build(PolicySpec{Scheme: "bogus"}, tech); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("unknown scheme error = %v, want ErrUnknownScheme", err)
	}
	bad := []PolicySpec{
		{Scheme: "opt-sleep", Params: Params{"bogus": Uint(1)}},
		{Scheme: "opt-sleep", Params: Params{"theta": Float(1.5)}},   // not integral
		{Scheme: "opt-sleep", Params: Params{"theta": Bool(true)}},   // wrong kind
		{Scheme: "waymemo", Params: Params{"accuracy": Float(1.5)}},  // out of range
		{Scheme: "waymemo", Params: Params{"accuracy": Float(-0.1)}}, // out of range
		{Scheme: "amc", Params: Params{"tag-fraction": Float(1)}},    // out of range
		{Scheme: "coloring", Params: Params{"colors": Uint(0)}},
		{Scheme: "coloring", Params: Params{"colors": Uint(64), "frames": Uint(4)}},
	}
	for _, spec := range bad {
		if _, err := r.Build(spec, tech); !errors.Is(err, ErrBadParam) {
			t.Errorf("Build(%v) error = %v, want ErrBadParam", spec, err)
		}
	}
	// Exact kind coercions are accepted: an integral float for a uint
	// parameter, a uint for a float parameter.
	pol, err := r.Build(PolicySpec{Scheme: "opt-sleep", Params: Params{"theta": Float(8192)}}, tech)
	if err != nil || pol.(OPTSleep).Theta != 8192 {
		t.Errorf("integral float theta: %v, %v", pol, err)
	}
	pol, err = r.Build(PolicySpec{Scheme: "waymemo", Params: Params{"accuracy": Uint(1)}}, tech)
	if err != nil || pol.(WayMemo).Accuracy != 1 {
		t.Errorf("uint accuracy: %v, %v", pol, err)
	}
}

func TestPolicySpecJSON(t *testing.T) {
	spec := PolicySpec{Scheme: "coloring", Params: Params{"colors": Uint(4), "frames": Uint(512)}}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Map keys marshal sorted, so the encoding is deterministic.
	want := `{"scheme":"coloring","params":{"colors":4,"frames":512}}`
	if string(b) != want {
		t.Errorf("Marshal = %s, want %s", b, want)
	}
	var back PolicySpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(spec) {
		t.Errorf("roundtrip = %+v, want %+v", back, spec)
	}
	// Numeric kinds: integers decode as uints, decimals as floats, and
	// MaxUint64 survives exactly.
	var v ParamValue
	if err := json.Unmarshal([]byte("18446744073709551615"), &v); err != nil {
		t.Fatal(err)
	}
	if u, ok := v.AsUint(); !ok || u != math.MaxUint64 {
		t.Errorf("MaxUint64 JSON roundtrip = %v, %v", u, ok)
	}
	if err := json.Unmarshal([]byte("0.75"), &v); err != nil {
		t.Fatal(err)
	}
	if f, ok := v.AsFloat(); !ok || f != 0.75 || v.Kind() != FloatParam {
		t.Errorf("float JSON = %v (%v)", f, v.Kind())
	}
	if err := json.Unmarshal([]byte("true"), &v); err != nil {
		t.Fatal(err)
	}
	if b, ok := v.AsBool(); !ok || !b {
		t.Error("bool JSON decode failed")
	}
	if err := json.Unmarshal([]byte(`"opt-sleep"`), &v); err == nil {
		t.Error("string parameter value accepted")
	}
	// Schemas marshal their kind as a readable name.
	sb, err := json.Marshal(ParamSchema{Name: "theta", Kind: UintParam, Doc: "d"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sb), `"kind":"uint"`) {
		t.Errorf("schema kind encoding = %s", sb)
	}
}

func TestBuiltinsEvaluateAndModelMisses(t *testing.T) {
	tech := power.Default()
	d := interval.NewDistribution(4, 200000)
	// Interior intervals across the regimes, plus prefetchable and edge
	// cases, with the conservation invariant satisfied by edge gaps.
	add := func(length uint64, flags interval.Flags, count uint64) {
		d.Add(length, flags, count)
	}
	add(5, 0, 10)
	add(500, 0, 3)
	add(50000, 0, 2)
	add(150000, interval.NLPrefetchable, 1)
	add(20000, interval.StridePrefetchable, 2)
	add(100000, interval.Leading, 1)
	add(38450, interval.Trailing, 1)
	add(200000, interval.Untouched, 1)
	rest := uint64(4*200000) - d.Mass()
	add(rest, interval.Leading, 1)

	for _, reg := range DefaultRegistry().Schemes() {
		pol, err := DefaultRegistry().Build(PolicySpec{Scheme: reg.Name}, tech)
		if err != nil {
			t.Errorf("Build(%s): %v", reg.Name, err)
			continue
		}
		// Every factory must return a policy the aggregate kernels
		// dispatch statically: a ClosedForm (a value type whose
		// EnergyCurve sits on the pointer fails here) with a valid curve
		// for every flags class, whose pieces also carry the induced
		// misses. Otherwise sweeps silently take the per-bucket reference
		// walk.
		cf, ok := pol.(ClosedForm)
		if !ok {
			t.Errorf("%s: factory returns %T, which is not a ClosedForm", reg.Name, pol)
		} else {
			for f := interval.Flags(0); f < interval.DeadEnd<<1; f++ {
				if c, ok := cf.EnergyCurve(tech, f); !ok || !c.valid() {
					t.Errorf("%s: no valid energy curve for flags %v", reg.Name, f)
				}
			}
		}
		ev, err := Evaluate(tech, d, pol)
		if err != nil {
			t.Errorf("Evaluate(%s): %v", reg.Name, err)
			continue
		}
		if math.IsNaN(ev.Savings) || ev.Savings > 1 {
			t.Errorf("%s savings = %v", reg.Name, ev.Savings)
		}
		// Every builtin reports induced misses for the Pareto axis.
		rate, err := InducedMissRate(tech, d, pol)
		if err != nil {
			t.Errorf("InducedMissRate(%s): %v", reg.Name, err)
			continue
		}
		if rate < 0 || math.IsNaN(rate) {
			t.Errorf("%s miss rate = %v", reg.Name, rate)
		}
	}
	// The drowsy-only schemes never induce a miss; the sleep oracles do on
	// this distribution.
	for _, name := range []string{"active", "opt-drowsy", "periodic-drowsy"} {
		pol, _ := DefaultRegistry().Build(PolicySpec{Scheme: name}, tech)
		if rate, _ := InducedMissRate(tech, d, pol); rate != 0 {
			t.Errorf("%s induced miss rate = %v, want 0", name, rate)
		}
	}
	for _, name := range []string{"opt-sleep", "opt-hybrid", "sleep-decay"} {
		pol, _ := DefaultRegistry().Build(PolicySpec{Scheme: name}, tech)
		if rate, _ := InducedMissRate(tech, d, pol); rate <= 0 {
			t.Errorf("%s induced miss rate = %v, want > 0", name, rate)
		}
	}
	// No miss model: a custom policy outside the builtins.
	if _, err := InducedMissRate(tech, d, stubPolicy{}); !errors.Is(err, ErrNoMissModel) {
		t.Errorf("no-miss-model error = %v, want ErrNoMissModel", err)
	}
}

// stubPolicy is a registry-less policy without a MissModel.
type stubPolicy struct{}

func (stubPolicy) Name() string { return "stub" }
func (stubPolicy) IntervalEnergy(t power.Technology, length uint64, _ interval.Flags) float64 {
	return t.ActiveEnergy(float64(length))
}

func TestColoringAndWayMemoSemantics(t *testing.T) {
	tech := power.Default()
	_, b, err := tech.InflectionPoints()
	if err != nil {
		t.Fatal(err)
	}
	// Coloring with one frame per color behaves like OPT-Sleep at b for
	// interior intervals.
	fine := Coloring{Colors: 64, Frames: 64}
	opt := OPTSleep{Theta: uint64(b + 0.5)}
	for _, L := range []uint64{100, 2000, 50000} {
		got := fine.IntervalEnergy(tech, L, 0)
		want := opt.IntervalEnergy(tech, L, 0)
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("fine coloring at L=%d: %g, OPT-Sleep(b): %g", L, got, want)
		}
	}
	// Coarser regions gate strictly less: energy is monotone in colors.
	coarse := Coloring{Colors: 2, Frames: 1024}
	mid := Coloring{Colors: 64, Frames: 1024}
	L := uint64(40000)
	if !(coarse.IntervalEnergy(tech, L, 0) >= mid.IntervalEnergy(tech, L, 0)) {
		t.Error("coarser coloring gated an interval a finer one did not")
	}
	// WayMemo at accuracy 1 equals Prefetch-A everywhere.
	wm := WayMemo{Accuracy: 1}
	pa := PrefetchA()
	for _, c := range []struct {
		L     uint64
		flags interval.Flags
	}{
		{50000, interval.NLPrefetchable},
		{2000, interval.StridePrefetchable},
		{50000, 0},
		{100, interval.NLPrefetchable},
		{50000, interval.Leading},
		{50000, interval.Trailing | interval.NLPrefetchable},
	} {
		got := wm.IntervalEnergy(tech, c.L, c.flags)
		want := pa.IntervalEnergy(tech, c.L, c.flags)
		if got != want {
			t.Errorf("WayMemo(1) at L=%d flags=%v: %g, Prefetch-A: %g", c.L, c.flags, got, want)
		}
	}
	// Lower accuracy costs more on slept predicted intervals, by exactly
	// the mispredict share of CD.
	lo := WayMemo{Accuracy: 0.5}
	gotLo := lo.IntervalEnergy(tech, 50000, interval.NLPrefetchable)
	gotHi := wm.IntervalEnergy(tech, 50000, interval.NLPrefetchable)
	if math.Abs((gotLo-gotHi)-0.5*tech.CD) > 1e-9 {
		t.Errorf("mispredict penalty = %g, want %g", gotLo-gotHi, 0.5*tech.CD)
	}
}
