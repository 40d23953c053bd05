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

// TestBuildRejectsDuplicateKeys pins that two keys naming one parameter
// are an error, worded as ParseSpec words the duplicate in the spec's own
// canonical spelling, instead of one value silently winning.
func TestBuildRejectsDuplicateKeys(t *testing.T) {
	tech := power.Default()
	r := DefaultRegistry()
	spec := PolicySpec{Scheme: "opt-sleep", Params: Params{"theta": Uint(5000), "Theta": Uint(7000)}}
	pol, err := r.Build(spec, tech)
	if !errors.Is(err, ErrBadParam) {
		t.Fatalf("Build(%v) = %v, %v; want ErrBadParam", spec, pol, err)
	}
	want := `leakage: bad policy parameter: duplicate parameter "theta" in "opt-sleep@Theta=7000,theta=5000"`
	if err.Error() != want {
		t.Errorf("Build(%v) error %q, want %q", spec, err, want)
	}
	if _, perr := r.ParseSpec(spec.String()); !errors.Is(perr, ErrBadParam) || !strings.Contains(perr.Error(), "duplicate parameter") {
		t.Errorf("ParseSpec(%q) = %v, want the same duplicate-parameter rejection", spec.String(), perr)
	}
	spaced := PolicySpec{Scheme: "coloring", Params: Params{"colors": Uint(4), " COLORS ": Uint(8)}}
	if _, err := r.Build(spaced, tech); !errors.Is(err, ErrBadParam) || !strings.Contains(err.Error(), "duplicate parameter") {
		t.Errorf("Build(%v) error = %v, want a duplicate-parameter ErrBadParam", spaced, err)
	}
}

// TestSweepResolution pins Sweep's own errors and that it selects the
// positional parameter when none is named.
func TestSweepResolution(t *testing.T) {
	tech := power.Default()
	r := DefaultRegistry()
	for _, c := range []struct {
		scheme, param string
		want          error
	}{
		{"bogus", "", ErrUnknownScheme},
		{"opt-drowsy", "", ErrBadParam}, // no positional parameter
		{"opt-sleep", "bogus", ErrBadParam},
	} {
		if _, err := r.Sweep(c.scheme, c.param); !errors.Is(err, c.want) {
			t.Errorf("Sweep(%q, %q) error = %v, want %v", c.scheme, c.param, err, c.want)
		}
	}
	sw, err := r.Sweep(" Coloring ", "")
	if err != nil {
		t.Fatal(err)
	}
	if sw.Scheme() != "coloring" {
		t.Errorf("Scheme() = %q, want coloring", sw.Scheme())
	}
	pol, err := sw.Build(tech, Uint(16))
	if err != nil || pol != (Coloring{Colors: 16, Frames: DefaultColoringFrames}) {
		t.Errorf("coloring sweep at 16 = %#v, %v", pol, err)
	}
	if _, err := sw.Build(tech, Uint(0)); !errors.Is(err, ErrBadParam) {
		t.Errorf("coloring sweep at 0: error = %v, want ErrBadParam", err)
	}
	// A failed value leaves nothing behind for the next one.
	if pol, err := sw.Build(tech, Float(4)); err != nil || pol != (Coloring{Colors: 4, Frames: DefaultColoringFrames}) {
		t.Errorf("coloring sweep at 4.0 after a failure = %#v, %v", pol, err)
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

// paramGrid is the values TestBuiltinsEvaluateAndModelMisses builds each
// declared parameter at, besides its default: the smallest value the
// factory accepts (0 where 0 selects the default), 1 or the low edge, a
// middle value, and values at or past 2^40 (for the bounded floats, their
// edges instead). Every declared parameter of every registered scheme
// must have an entry.
var paramGrid = map[string][]ParamValue{
	"theta":        {Uint(0), Uint(1), Uint(5000), Uint(1 << 40), Uint(math.MaxUint64)},
	"window":       {Uint(0), Uint(1), Uint(2000), Uint(1 << 40), Uint(math.MaxUint64)},
	"tag-fraction": {Float(0), Float(0.06), Float(0.5), Float(math.Nextafter(1, 0))},
	"colors":       {Uint(1), Uint(8), Uint(1024), Uint(1 << 40), Uint(math.MaxUint64)},
	"frames":       {Uint(1), Uint(1024), Uint(1 << 40), Uint(math.MaxUint64)},
	"accuracy":     {Float(0), Float(0.5), Float(DefaultWayMemoAccuracy), Float(1)},
}

// gridSpecs returns reg's spec at its defaults and at every combination
// of paramGrid values, each parameter also left at its default.
func gridSpecs(t *testing.T, reg Registration) []PolicySpec {
	t.Helper()
	specs := []PolicySpec{{Scheme: reg.Name}}
	for _, sch := range reg.Params {
		grid, ok := paramGrid[sch.Name]
		if !ok {
			t.Fatalf("%s: parameter %q has no paramGrid entry", reg.Name, sch.Name)
		}
		for _, base := range specs {
			for _, v := range grid {
				params := Params{sch.Name: v}
				for k, bv := range base.Params {
					params[k] = bv
				}
				specs = append(specs, PolicySpec{Scheme: reg.Name, Params: params})
			}
		}
	}
	return specs
}

// TestBuiltinsEvaluateAndModelMisses builds every registered scheme over
// paramGrid at every builtin technology node, a temperature-scaled node
// and a node with a write-back cost, and checks that the aggregate
// kernels can fold each built policy: it has an energy curve for all 64
// flags values, of 1 to maxPieces pieces with the last ending at +Inf,
// and EvaluateMany agrees with the reference walk. This is what shows no
// builtin meets ErrNoClosedForm or the overflow error. Each grid value
// must build for some combination; the factory may reject one only with
// ErrBadParam. At the defaults every scheme also reports induced misses.
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
	agg := interval.NewAggregates(d)

	techs := power.Technologies()
	hot, err := power.TemperatureScaledTechnology(power.Default(), 380)
	if err != nil {
		t.Fatal(err)
	}
	wb := power.Default()
	wb.WBEnergy = 0.5 * wb.CD
	techs = append(techs, hot, wb)
	for _, reg := range DefaultRegistry().Schemes() {
		built := map[string]bool{}
		for _, tn := range techs {
			for _, spec := range gridSpecs(t, reg) {
				pol, err := DefaultRegistry().Build(spec, tn)
				if err != nil {
					if !errors.Is(err, ErrBadParam) {
						t.Errorf("Build(%s) @%s: %v", spec, tn.Name, err)
					}
					continue
				}
				for k, v := range spec.Params {
					built[k+"="+v.String()] = true
				}
				cp, ok := pol.(curvePolicy)
				if !ok {
					t.Errorf("%s: factory returns %T, which has no energy curve", spec, pol)
					continue
				}
				for f := interval.Flags(0); f < interval.NumFlags; f++ {
					c := cp.EnergyCurve(tn, f)
					if c.n < 1 || c.n > maxPieces || !math.IsInf(c.p[c.n-1].end, 1) {
						t.Errorf("%s @%s flags %v: curve of %d pieces, %+v", spec, tn.Name, f, c.n, c.p)
					}
				}
				ref, err := Evaluate(tn, d, pol)
				if err != nil {
					t.Fatalf("Evaluate(%s) @%s: %v", spec, tn.Name, err)
				}
				fast, err := EvaluateMany(tn, agg, []Policy{pol})
				if err != nil {
					t.Errorf("EvaluateMany(%s) @%s: %v", spec, tn.Name, err)
				} else if !relClose(fast[0].Energy, ref.Energy, 1e-9, 1e-12) {
					t.Errorf("%s @%s: kernel energy %.17g, reference %.17g", spec, tn.Name, fast[0].Energy, ref.Energy)
				}
			}
		}
		for _, sch := range reg.Params {
			for _, v := range paramGrid[sch.Name] {
				if !built[sch.Name+"="+v.String()] {
					t.Errorf("%s: %s=%s never built", reg.Name, sch.Name, v)
				}
			}
		}

		pol, err := DefaultRegistry().Build(PolicySpec{Scheme: reg.Name}, tech)
		if err != nil {
			t.Errorf("Build(%s): %v", reg.Name, err)
			continue
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
