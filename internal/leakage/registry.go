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
// out-of-range values.
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
		if reg.Positional == "" {
			return PolicySpec{}, fmt.Errorf("%w: scheme %q takes no positional parameter (declared: %s)",
				ErrBadParam, name, reg.paramNames())
		}
		sch, _ := reg.Schema(reg.Positional)
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
// parameter); anything else returns ErrBadParam. Unknown schemes return
// ErrUnknownScheme.
func (r *Registry) Build(spec PolicySpec, tech power.Technology) (Policy, error) {
	name := strings.ToLower(strings.TrimSpace(spec.Scheme))
	reg, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknownScheme, spec.Scheme, strings.Join(r.Names(), ", "))
	}
	// A sweep builds a one-parameter spec per value: its key fits the
	// stack buffer, so sorting the keys allocates nothing.
	var buf [1]string
	params := make(Params, len(spec.Params))
	for _, key := range spec.Params.sortedKeys(buf[:0]) {
		sch, declared := reg.Schema(strings.ToLower(strings.TrimSpace(key)))
		if !declared {
			return nil, fmt.Errorf("%w: unknown parameter %q for scheme %q (declared: %s)",
				ErrBadParam, key, name, reg.paramNames())
		}
		v, err := coerceParam(sch, spec.Params[key])
		if err != nil {
			return nil, fmt.Errorf("%w: %s for scheme %q: %w", ErrBadParam, sch.Name, name, err)
		}
		params[sch.Name] = v
	}
	pol, err := reg.Factory(tech, params)
	if err != nil {
		return nil, fmt.Errorf("leakage: building %q: %w", name, err)
	}
	if pol == nil {
		return nil, fmt.Errorf("leakage: scheme %q factory returned a nil policy", name)
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
