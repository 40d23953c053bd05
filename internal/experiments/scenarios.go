package experiments

// Scenario integration: the suite's benchmark set is the built-in six
// plus any registered scenarios — spec-compiled workloads and recorded
// traces (internal/workload/spec) — evaluated through exactly the same
// simulate-once / evaluate-many pipeline, disk cache, and telemetry as
// the builtins. A second, ad-hoc path (DataForScenarioContext) serves
// one-shot scenarios that arrive at query time (a spec POSTed to
// leakaged) without registering them: results are keyed by spec digest
// and retained in a small bounded window.

import (
	"context"
	"fmt"
	"strings"

	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/workload"
)

// Scenario is a benchmark defined outside the built-in workload set: a
// named, content-addressed workload factory. *spec.Spec and *spec.Replay
// (and anything spec.LoadDir returns) satisfy it structurally — the suite
// deliberately does not import the spec package, so recorded traces,
// compiled specs, and test doubles all plug in the same way.
type Scenario interface {
	// ScenarioName is the benchmark name the scenario serves under.
	ScenarioName() string
	// ScenarioDigest content-addresses the scenario (hex SHA-256 of the
	// canonical spec or trace bytes); it keys disk-cache entries so a
	// changed definition never serves a stale simulation.
	ScenarioDigest() string
	// Workload instantiates the scenario at a scale (recorded traces are
	// fixed-length and may ignore it).
	Workload(scale float64) (workload.Workload, error)
}

// adhocDataCap bounds how many ad-hoc scenario results (one per distinct
// POSTed spec digest) the suite retains in memory; the oldest entry is
// evicted beyond that. Registered benchmarks are never evicted.
const adhocDataCap = 8

// WithScenarios registers extra benchmarks alongside the built-in six.
// Registered scenarios appear in BenchmarkNames, are simulated by
// AllContext (so they join every sweep, table, and Pareto population),
// and resolve by name through DataContext. Names must be non-empty, free
// of path/key separators, distinct from the builtins, and mutually
// distinct.
func WithScenarios(scs ...Scenario) Option {
	return func(s *Suite) error {
		for _, sc := range scs {
			if sc == nil {
				return fmt.Errorf("%w: nil scenario", ErrBadOption)
			}
			name := sc.ScenarioName()
			if name == "" {
				return fmt.Errorf("%w: scenario with empty name", ErrBadOption)
			}
			if strings.ContainsAny(name, ":/\\ \t\n") {
				return fmt.Errorf("%w: scenario name %q contains reserved characters", ErrBadOption, name)
			}
			if workload.Validate(name) == nil {
				return fmt.Errorf("%w: scenario %q shadows a built-in benchmark", ErrBadOption, name)
			}
			if _, dup := s.scenarioIdx[name]; dup {
				return fmt.Errorf("%w: duplicate scenario %q", ErrBadOption, name)
			}
			if sc.ScenarioDigest() == "" {
				return fmt.Errorf("%w: scenario %q has an empty digest", ErrBadOption, name)
			}
			if s.scenarioIdx == nil {
				s.scenarioIdx = make(map[string]Scenario)
			}
			s.scenarioIdx[name] = sc
			s.scenarios = append(s.scenarios, sc)
		}
		return nil
	}
}

// BenchmarkNames returns the suite's full benchmark set in presentation
// order: the built-in six, then registered scenarios in registration
// order. This is the set AllContext simulates.
func (s *Suite) BenchmarkNames() []string {
	names := workload.Names()
	for _, sc := range s.scenarios {
		names = append(names, sc.ScenarioName())
	}
	return names
}

// KnownBenchmark reports whether name resolves in this suite — as a
// built-in workload or a registered scenario.
func (s *Suite) KnownBenchmark(name string) bool {
	if workload.Validate(name) == nil {
		return true
	}
	_, ok := s.scenarioIdx[name]
	return ok
}

// Scenarios returns the registered scenarios in registration order.
func (s *Suite) Scenarios() []Scenario {
	out := make([]Scenario, len(s.scenarios))
	copy(out, s.scenarios)
	return out
}

// DataForScenarioContext returns simulation products for a scenario that
// need not be registered — the serving layer's path for specs that
// arrive in a request body. Results are keyed by the scenario's digest:
// repeated queries for the same spec reuse one simulation (singleflight
// plus a bounded in-memory window of adhocDataCap entries, plus the disk
// cache if enabled), and a registered scenario with the same name and
// digest shares the registered entry outright.
func (s *Suite) DataForScenarioContext(ctx context.Context, sc Scenario) (*BenchmarkData, error) {
	if sc == nil {
		return nil, fmt.Errorf("%w: nil scenario", ErrBadOption)
	}
	name, digest := sc.ScenarioName(), sc.ScenarioDigest()
	if name == "" {
		return nil, fmt.Errorf("%w: scenario with empty name", ErrBadOption)
	}
	if digest == "" {
		return nil, fmt.Errorf("%w: scenario %q has an empty digest", ErrBadOption, name)
	}
	if reg, ok := s.scenarioIdx[name]; ok && reg.ScenarioDigest() == digest {
		return s.DataContext(ctx, name)
	}
	return s.dataByKey(ctx, "adhoc:"+digest, true, func(ctx context.Context) (*BenchmarkData, error) {
		return s.produceWorkload(ctx, name, s.scenarioCacheKey(name, digest), false,
			func() (workload.Workload, error) { return sc.Workload(s.scale) })
	})
}

// EvaluateScenarioCellContext evaluates one policy on an ad-hoc
// scenario's cache at one technology node — EvaluateCellContext for a
// scenario passed by value instead of by registered name.
func (s *Suite) EvaluateScenarioCellContext(ctx context.Context, sc Scenario, iCache bool, tech power.Technology, pol leakage.Policy) (CellEvaluation, error) {
	bd, err := s.DataForScenarioContext(ctx, sc)
	if err != nil {
		return CellEvaluation{}, err
	}
	return evaluateCell(ctx, bd, bd.Name, "adhoc", iCache, tech, pol)
}

// SweepParamScenarioContext sweeps a scheme parameter over a single
// ad-hoc scenario's chosen cache: the scenario-scoped counterpart of
// SweepParamContext, answering the whole value list in one inline
// leakage.EvaluateMany pass over the scenario's prefix aggregates (one
// aggregate needs no pool). Points carry the scenario's own savings, not
// a suite average.
func (s *Suite) SweepParamScenarioContext(ctx context.Context, sc Scenario, scheme, param string, iCache bool, tech power.Technology, values []leakage.ParamValue) ([]ParamSweepPoint, error) {
	pols, name, err := resolveSweepPolicies(scheme, param, tech, values)
	if err != nil {
		return nil, err
	}
	bd, err := s.DataForScenarioContext(ctx, sc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, agg := bd.Side(iCache)
	evs, err := leakage.EvaluateMany(tech, agg, pols)
	if err != nil {
		return nil, fmt.Errorf("experiments: sweep %s/%s: %w", name, bd.Name, err)
	}
	return s.sweepPoints(values, [][]leakage.Evaluation{evs}), nil
}
