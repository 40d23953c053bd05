package leakage

// The policy registry: each scheme registers a factory from (technology,
// params) to Policy together with its declared parameter schemas, and the
// registry provides parsing (ParseSpec), validated construction (Build),
// and the single source of truth for the scheme catalog (Names, Schemes)
// that error messages, /api/v1/policies, and the README table all render
// from. The six paper policies and the extension baselines are registered
// in builtins.go; custom schemes — typically built on the Figure 6 Model
// construction kit — register the same way (see DESIGN.md §12 for a
// worked example).

import (
	"fmt"
	"strings"
	"sync"

	"leakbound/internal/power"
)

// Factory builds one policy from a calibrated technology node and the
// normalized parameter map. Absent parameters mean "use the scheme's
// default"; factories must return an error wrapping ErrBadParam for
// out-of-range values. A factory must not keep the map, or anything that
// aliases it, after it returns: a ParamSweep reuses one map for every
// value it builds.
type Factory func(power.Technology, Params) (Policy, error)

// Registration describes one scheme: its canonical (lowercase) name, a
// one-line doc, the declared parameters, which parameter the legacy
// positional "scheme@N" shorthand binds to (empty = the scheme takes no
// positional), and the factory.
type Registration struct {
	Name       string        `json:"name"`
	Doc        string        `json:"doc"`
	Positional string        `json:"positional,omitempty"`
	Params     []ParamSchema `json:"params,omitempty"`
	// Refines names the scheme this one is a strictly-better-informed
	// refinement of (e.g. the write-back- and dead-block-aware hybrid
	// oracles refine "opt-hybrid"). Refinements dominate their base by
	// construction, so family-level comparisons like the default Pareto
	// population keep one representative per family and skip them.
	Refines string  `json:"refines,omitempty"`
	Factory Factory `json:"-"`
}

// Schema returns the declared schema for a parameter name.
func (r Registration) Schema(name string) (ParamSchema, bool) {
	for _, p := range r.Params {
		if p.Name == name {
			return p, true
		}
	}
	return ParamSchema{}, false
}

// paramNames lists the declared parameter names for error messages.
func (r Registration) paramNames() string {
	if len(r.Params) == 0 {
		return "none"
	}
	names := make([]string, 0, len(r.Params))
	for _, p := range r.Params {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

// positional returns the schema the "scheme@N" shorthand binds to.
func (r Registration) positional() (ParamSchema, error) {
	if r.Positional == "" {
		return ParamSchema{}, fmt.Errorf("%w: scheme %q takes no positional parameter (declared: %s)",
			ErrBadParam, r.Name, r.paramNames())
	}
	sch, _ := r.Schema(r.Positional)
	return sch, nil
}

// Registry maps scheme names to registrations, preserving registration
// order for presentation. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Registration
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Registration)}
}

// Register adds a scheme. The name must be non-empty, lowercase, and
// unused (a duplicate returns ErrDuplicateScheme); parameter names must be
// lowercase and unique; Positional, when set, must name a declared
// parameter; the factory must be non-nil.
func (r *Registry) Register(reg Registration) error {
	if reg.Name == "" {
		return fmt.Errorf("%w: empty scheme name", ErrBadParam)
	}
	if reg.Name != strings.ToLower(reg.Name) || strings.ContainsAny(reg.Name, "@=, \t") {
		return fmt.Errorf("%w: scheme name %q must be lowercase without @, =, comma, or spaces", ErrBadParam, reg.Name)
	}
	if reg.Factory == nil {
		return fmt.Errorf("%w: scheme %q has a nil factory", ErrBadParam, reg.Name)
	}
	seen := make(map[string]bool, len(reg.Params))
	for _, p := range reg.Params {
		if p.Name == "" || p.Name != strings.ToLower(p.Name) || strings.ContainsAny(p.Name, "@=, \t") {
			return fmt.Errorf("%w: scheme %q parameter %q must be lowercase without @, =, comma, or spaces", ErrBadParam, reg.Name, p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("%w: scheme %q declares parameter %q twice", ErrBadParam, reg.Name, p.Name)
		}
		seen[p.Name] = true
	}
	if reg.Positional != "" && !seen[reg.Positional] {
		return fmt.Errorf("%w: scheme %q positional %q is not a declared parameter", ErrBadParam, reg.Name, reg.Positional)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[reg.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateScheme, reg.Name)
	}
	r.byName[reg.Name] = reg
	r.order = append(r.order, reg.Name)
	return nil
}

// MustRegister is Register that panics; for the package's own builtins
// and for init-time registration of custom schemes.
func (r *Registry) MustRegister(reg Registration) {
	if err := r.Register(reg); err != nil {
		panic(err)
	}
}

// Lookup returns the registration for a canonical (lowercase) name.
func (r *Registry) Lookup(name string) (Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.byName[name]
	return reg, ok
}

// Names lists the registered scheme names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Schemes lists the registrations in registration order.
func (r *Registry) Schemes() []Registration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Registration, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name])
	}
	return out
}

// ParseSpec parses the policy-spec grammar, case- and space-folded:
//
//	scheme                      no parameters
//	scheme@VALUE                positional shorthand (the scheme's declared
//	                            positional parameter; legacy "@theta")
//	scheme@key=value,key=value  named parameters
//
// Unknown schemes return ErrUnknownScheme; unknown keys, duplicate keys,
// positional values on schemes with no positional parameter, and
// malformed values return ErrBadParam. Values parse under the declared
// kind with strconv semantics (uints are base-10 only, full 64-bit range).
func (r *Registry) ParseSpec(s string) (PolicySpec, error) {
	text := strings.ToLower(strings.TrimSpace(s))
	name, rest, hasParams := strings.Cut(text, "@")
	reg, ok := r.Lookup(name)
	if !ok {
		return PolicySpec{}, fmt.Errorf("%w: %q (known: %s)", ErrUnknownScheme, name, strings.Join(r.Names(), ", "))
	}
	spec := PolicySpec{Scheme: name}
	if !hasParams {
		return spec, nil
	}
	params := make(Params)
	if !strings.Contains(rest, "=") {
		// Positional shorthand: "scheme@N".
		sch, err := reg.positional()
		if err != nil {
			return PolicySpec{}, err
		}
		v, err := parseParamValue(sch.Kind, rest)
		if err != nil {
			return PolicySpec{}, fmt.Errorf("%w: %s in %q: %w", ErrBadParam, sch.Name, s, err)
		}
		params[sch.Name] = v
		spec.Params = params
		return spec, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return PolicySpec{}, fmt.Errorf("%w: %q in %q (want key=value)", ErrBadParam, kv, s)
		}
		sch, declared := reg.Schema(key)
		if !declared {
			return PolicySpec{}, fmt.Errorf("%w: unknown parameter %q for scheme %q (declared: %s)",
				ErrBadParam, key, name, reg.paramNames())
		}
		if _, dup := params[sch.Name]; dup {
			return PolicySpec{}, fmt.Errorf("%w: duplicate parameter %q in %q", ErrBadParam, key, s)
		}
		v, err := parseParamValue(sch.Kind, strings.TrimSpace(val))
		if err != nil {
			return PolicySpec{}, fmt.Errorf("%w: %s in %q: %w", ErrBadParam, sch.Name, s, err)
		}
		params[sch.Name] = v
	}
	spec.Params = params
	return spec, nil
}

// Build validates the spec against the scheme's declared schema and runs
// the factory. Parameter values of the wrong kind are coerced when exact
// (a JSON 8192 for a float parameter, an integral float for a uint
// parameter); anything else returns ErrBadParam, as do two keys naming the
// same parameter ("theta" and "Theta"). Unknown schemes return
// ErrUnknownScheme.
func (r *Registry) Build(spec PolicySpec, tech power.Technology) (Policy, error) {
	b, err := r.binding(spec.Scheme, len(spec.Params))
	if err != nil {
		return nil, err
	}
	// A one-parameter spec's key fits the stack buffer, so sorting the
	// keys allocates nothing.
	var buf [1]string
	for _, key := range spec.Params.sortedKeys(buf[:0]) {
		sch, err := b.schema(key, spec)
		if err != nil {
			return nil, err
		}
		if err := b.set(sch, spec.Params[key]); err != nil {
			return nil, err
		}
	}
	return b.build(tech)
}

// ParamSweep builds one scheme over a list of values for one of its
// parameters, with the scheme and the parameter resolved once: each
// value costs its coercion and one factory call on a single reused
// parameter map. A ParamSweep is not safe for concurrent use.
type ParamSweep struct {
	b   binding
	sch ParamSchema
}

// Sweep resolves scheme and the parameter to sweep, case- and
// space-folded; an empty param selects the scheme's positional
// parameter. Unknown schemes return ErrUnknownScheme; a scheme with no
// positional parameter (when param is empty) or no parameter param
// returns ErrBadParam.
func (r *Registry) Sweep(scheme, param string) (*ParamSweep, error) {
	b, err := r.binding(scheme, 1)
	if err != nil {
		return nil, err
	}
	var sch ParamSchema
	if strings.TrimSpace(param) == "" {
		sch, err = b.reg.positional()
	} else {
		sch, err = b.schema(param, PolicySpec{Scheme: b.name})
	}
	if err != nil {
		return nil, err
	}
	return &ParamSweep{b: b, sch: sch}, nil
}

// Scheme returns the swept scheme's canonical name.
func (s *ParamSweep) Scheme() string { return s.b.name }

// Build builds the scheme with the swept parameter set to v. The policy
// and the error are exactly Registry.Build's for the spec holding just
// that parameter.
func (s *ParamSweep) Build(tech power.Technology, v ParamValue) (Policy, error) {
	if err := s.b.set(s.sch, v); err != nil {
		return nil, err
	}
	return s.b.build(tech)
}

// binding is one scheme resolved against a registry together with the
// normalized parameter map its factory receives. It holds every check
// Build makes; Build runs them per spec, a ParamSweep resolves the
// scheme and its key once and then only sets values.
type binding struct {
	reg    Registration
	name   string // canonical scheme name, for errors
	params Params
}

// binding resolves a scheme name, case- and space-folded, with room for
// n parameters.
func (r *Registry) binding(scheme string, n int) (binding, error) {
	name := strings.ToLower(strings.TrimSpace(scheme))
	reg, ok := r.Lookup(name)
	if !ok {
		return binding{}, fmt.Errorf("%w: %q (known: %s)", ErrUnknownScheme, scheme, strings.Join(r.Names(), ", "))
	}
	return binding{reg: reg, name: name, params: make(Params, n)}, nil
}

// schema resolves a raw key, case- and space-folded, to a declared
// parameter that holds no value yet; spec is the request the key came
// from, quoted by the duplicate-key error.
func (b binding) schema(key string, spec PolicySpec) (ParamSchema, error) {
	sch, declared := b.reg.Schema(strings.ToLower(strings.TrimSpace(key)))
	if !declared {
		return ParamSchema{}, fmt.Errorf("%w: unknown parameter %q for scheme %q (declared: %s)",
			ErrBadParam, key, b.name, b.reg.paramNames())
	}
	if _, dup := b.params[sch.Name]; dup {
		return ParamSchema{}, fmt.Errorf("%w: duplicate parameter %q in %q", ErrBadParam, key, spec.String())
	}
	return sch, nil
}

// set coerces v to sch's kind and stores it, replacing any earlier value.
func (b binding) set(sch ParamSchema, v ParamValue) error {
	v, err := coerceParam(sch, v)
	if err != nil {
		return fmt.Errorf("%w: %s for scheme %q: %w", ErrBadParam, sch.Name, b.name, err)
	}
	b.params[sch.Name] = v
	return nil
}

// build runs the factory on the stored parameters.
func (b binding) build(tech power.Technology) (Policy, error) {
	pol, err := b.reg.Factory(tech, b.params)
	if err != nil {
		return nil, fmt.Errorf("leakage: building %q: %w", b.name, err)
	}
	if pol == nil {
		return nil, fmt.Errorf("leakage: scheme %q factory returned a nil policy", b.name)
	}
	return pol, nil
}

// coerceParam fits a provided value to the declared kind, allowing only
// exact conversions.
func coerceParam(sch ParamSchema, v ParamValue) (ParamValue, error) {
	if v.Kind() == sch.Kind {
		return v, nil
	}
	switch sch.Kind {
	case UintParam:
		if u, ok := v.AsUint(); ok {
			return Uint(u), nil
		}
	case FloatParam:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
	}
	return ParamValue{}, fmt.Errorf("value %s is not a valid %s", v, sch.Kind)
}

// DefaultRegistry returns the package registry holding the built-in
// schemes (the paper's six policies plus the extension baselines and the
// related-work families). Custom schemes may be registered on it at init
// time.
func DefaultRegistry() *Registry { return defaultRegistry }

// PolicyNames lists the registered scheme names of the default registry in
// registration order — the single source of truth behind
// experiments.PolicyNames, /api/v1/policies, and parse errors.
func PolicyNames() []string { return defaultRegistry.Names() }
