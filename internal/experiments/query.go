package experiments

// The exported query surface for the serving layer (cmd/leakaged): every
// figure and table of the suite is a closed-form function of
// (technology x policy x benchmark x cache side), and these helpers
// expose that space as parseable, parameterized queries instead of the
// fixed figure set the batch CLIs print. A served cell evaluates inline
// on the request goroutine through leakage.EvaluateMany; every query over
// the suite's benchmarks goes through evaluateSide, one compiled policy
// list per query and one worker-pool task per benchmark, the same path as
// the batch figures and tables.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
)

// Sentinel errors for query parsing; match with errors.Is.
var (
	// ErrUnknownPolicy reports a policy name outside PolicyNames.
	ErrUnknownPolicy = fmt.Errorf("experiments: unknown policy")

	// ErrUnknownCacheSide reports a cache-side selector outside {i, d}.
	ErrUnknownCacheSide = fmt.Errorf("experiments: unknown cache side")

	// ErrUnknownTechnology reports a technology name with no built-in node.
	ErrUnknownTechnology = fmt.Errorf("experiments: unknown technology")
)

// PolicyNames lists the canonical spellings ParsePolicy accepts, in
// registration (presentation) order — the registry is the single source of
// truth. Parameterized policies take an optional "@value" positional
// suffix (e.g. "opt-sleep@5088") or "@key=value,..." pairs.
func PolicyNames() []string { return leakage.PolicyNames() }

// ParsePolicySpec parses a query spelling into a structured policy spec
// against the default registry's grammar ("scheme", "scheme@value",
// "scheme@key=value,..."), case/space folded. Errors wrap
// ErrUnknownPolicy so the serving layer's 400 mapping matches on one
// sentinel for every parse failure.
func ParsePolicySpec(spec string) (leakage.PolicySpec, error) {
	ps, err := leakage.DefaultRegistry().ParseSpec(spec)
	if err != nil {
		return leakage.PolicySpec{}, badPolicy(err)
	}
	return ps, nil
}

// BuildPolicy constructs the policy a spec describes at one technology
// node via the default registry; validation failures wrap
// ErrUnknownPolicy like parse failures.
func BuildPolicy(ps leakage.PolicySpec, tech power.Technology) (leakage.Policy, error) {
	pol, err := leakage.DefaultRegistry().Build(ps, tech)
	if err != nil {
		return nil, badPolicy(err)
	}
	return pol, nil
}

// badPolicy wraps a registry error in ErrUnknownPolicy, which the serving
// layer maps to a 400.
func badPolicy(err error) error {
	return fmt.Errorf("%w: %w", ErrUnknownPolicy, err)
}

// ParsePolicy builds a leakage policy from a query spelling — a thin
// compat shim over ParsePolicySpec + BuildPolicy. Every pre-registry
// spelling keeps parsing bit-identically: a zero/absent theta falls back
// to the technology's drowsy-sleep inflection point b for opt-sleep and
// sleep-decay (the paper's own default) and to 2000 cycles for
// periodic-drowsy, and — as the legacy parser did — a numeric "@theta"
// suffix on a scheme with no positional parameter (e.g. "active@5") is
// accepted and ignored.
func ParsePolicy(spec string, tech power.Technology) (leakage.Policy, error) {
	ps, err := ParsePolicySpec(spec)
	if err != nil {
		if bare, ok := stripIgnoredTheta(spec); ok {
			return BuildPolicy(leakage.PolicySpec{Scheme: bare}, tech)
		}
		return nil, err
	}
	return BuildPolicy(ps, tech)
}

// stripIgnoredTheta reproduces the legacy parser's one permissive corner:
// "scheme@123" succeeded even when scheme took no parameter, silently
// dropping the theta. It reports the bare scheme name when spec has that
// shape — a registered scheme without a positional parameter followed by
// a well-formed base-10 uint.
func stripIgnoredTheta(spec string) (string, bool) {
	s := strings.ToLower(strings.TrimSpace(spec))
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return "", false
	}
	name, suffix := s[:at], s[at+1:]
	reg, ok := leakage.DefaultRegistry().Lookup(name)
	if !ok || reg.Positional != "" {
		return "", false
	}
	if _, err := strconv.ParseUint(suffix, 10, 64); err != nil {
		return "", false
	}
	return name, true
}

// ParseCacheSide maps a query selector onto the study's two L1 subjects:
// "i"/"icache"/"instruction" or "d"/"dcache"/"data".
func ParseCacheSide(s string) (iCache bool, err error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "i", "icache", "instruction", "":
		return true, nil
	case "d", "dcache", "data":
		return false, nil
	default:
		return false, fmt.Errorf("%w: %q (want i or d)", ErrUnknownCacheSide, s)
	}
}

// ParseTechnology resolves a built-in node by name ("70nm", "100nm",
// "130nm", "180nm"); the empty string selects power.Default().
func ParseTechnology(name string) (power.Technology, error) {
	if strings.TrimSpace(name) == "" {
		return power.Default(), nil
	}
	t, err := power.TechnologyByName(strings.TrimSpace(name))
	if err != nil {
		return power.Technology{}, fmt.Errorf("%w: %w", ErrUnknownTechnology, err)
	}
	return t, nil
}

// CellEvaluation is one served (benchmark x cache x technology x policy)
// cell: the evaluation plus the coordinates that produced it.
type CellEvaluation struct {
	Benchmark  string  `json:"benchmark"`
	Cache      string  `json:"cache"`
	Technology string  `json:"technology"`
	Policy     string  `json:"policy"`
	Energy     float64 `json:"energy"`
	Baseline   float64 `json:"baseline"`
	Savings    float64 `json:"savings"`
}

// EvaluateCellContext evaluates one policy on one benchmark's cache at one
// technology node, simulating the benchmark on first use (shared through
// the suite's singleflight).
func (s *Suite) EvaluateCellContext(ctx context.Context, benchmark string, iCache bool, tech power.Technology, pol leakage.Policy) (CellEvaluation, error) {
	bd, err := s.DataContext(ctx, benchmark)
	if err != nil {
		return CellEvaluation{}, err
	}
	return evaluateCell(ctx, bd, benchmark, benchmark, iCache, tech, pol)
}

// evaluateCell evaluates pol on one cache side of bd inline (one cell
// needs no pool), reporting the cell under benchmark; scope names where
// the data came from (the benchmark, or "adhoc") in errors.
func evaluateCell(ctx context.Context, bd *BenchmarkData, benchmark, scope string, iCache bool, tech power.Technology, pol leakage.Policy) (CellEvaluation, error) {
	if err := ctx.Err(); err != nil {
		return CellEvaluation{}, err
	}
	_, agg := bd.Side(iCache)
	side := "i"
	if !iCache {
		side = "d"
	}
	evs, err := leakage.EvaluateMany(tech, agg, []leakage.Policy{pol})
	if err != nil {
		return CellEvaluation{}, fmt.Errorf("experiments: query %s/%s/%s: %w", scope, side, tech.Name, err)
	}
	ev := evs[0]
	return CellEvaluation{
		Benchmark:  benchmark,
		Cache:      side,
		Technology: tech.Name,
		Policy:     ev.Policy,
		Energy:     ev.Energy,
		Baseline:   ev.Baseline,
		Savings:    ev.Savings,
	}, nil
}

// SweepPoint is one theta sample of a parameterized sweep: the
// benchmark-averaged savings of the scheme with that minimum sleepable
// interval length.
type SweepPoint struct {
	Theta   uint64  `json:"theta"`
	Savings float64 `json:"savings"`
}

// ParamSweepPoint is one sample of a generalized parameter sweep: the
// benchmark-averaged savings of the scheme with that parameter value.
type ParamSweepPoint struct {
	Value   leakage.ParamValue `json:"value"`
	Savings float64            `json:"savings"`
}

// SweepParamContext generalizes Figure 7 into a parameterized query over
// any declared scheme parameter: for each value it builds the scheme with
// that parameter substituted, evaluates it on every benchmark's chosen
// cache at tech, and averages. An empty param selects the scheme's
// positional parameter.
//
// Dense sweeps are the aggregate kernel's home turf: evaluateSide
// compiles the value list once, then each benchmark task answers it in
// one pass over the suite's cached prefix aggregates, at most O(values x
// classes x pieces) prefix searches per benchmark, each bracketed by the
// class's value index. A cut the previous value shares at the same piece
// (a ladder's fixed drowsy, wake and S1 cuts) reuses that answer from the
// fold's per-class memo, so mostly the moving cut is searched. The
// reduction runs in value-major, benchmark-inner order.
func (s *Suite) SweepParamContext(ctx context.Context, scheme, param string, iCache bool, tech power.Technology, values []leakage.ParamValue) ([]ParamSweepPoint, error) {
	pols, name, err := resolveSweepPolicies(scheme, param, tech, values)
	if err != nil {
		return nil, err
	}
	all, err := s.AllContext(ctx)
	if err != nil {
		return nil, err
	}
	res, err := s.evaluateSide(ctx, "sweep "+name, all, iCache, tech, pols)
	if err != nil {
		return nil, err
	}
	return s.sweepPoints(values, res), nil
}

// sweepPoints averages each value's savings over the benchmarks of res
// (res[benchmark][value]) in benchmark order and counts the sweep in the
// "sweep" telemetry scope.
func (s *Suite) sweepPoints(values []leakage.ParamValue, res [][]leakage.Evaluation) []ParamSweepPoint {
	sc := s.metrics.Scope("sweep")
	sc.Counter("points").Add(uint64(len(values)))
	sc.Counter("evaluations").Add(uint64(len(values) * len(res)))
	out := make([]ParamSweepPoint, 0, len(values))
	for vi, v := range values {
		var sum float64
		for bi := range res {
			sum += res[bi][vi].Savings
		}
		out = append(out, ParamSweepPoint{Value: v, Savings: sum / float64(len(res))})
	}
	return out
}

// evaluateSide is the suite's one evaluation over its benchmarks: it
// compiles pols once at tech over the chosen cache side of all, then
// answers the whole list on each benchmark in one forEach task,
// submitting the largest aggregates first (see largestFirst).
// res[bi][pi] is policy pi on benchmark bi, whatever the worker count or
// the order; errors name the query and the benchmark.
func (s *Suite) evaluateSide(ctx context.Context, query string, all []*BenchmarkData, iCache bool, tech power.Technology, pols []leakage.Policy) ([][]leakage.Evaluation, error) {
	aggs := sideAggregates(all, iCache)
	cp, err := leakage.Compile(tech, pols, aggs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", query, err)
	}
	order := largestFirst(aggs)
	res := make([][]leakage.Evaluation, len(all))
	err = s.forEach(ctx, len(all), func(k int) error {
		bi := order[k]
		evs, err := cp.Evaluate(aggs[bi])
		if err != nil {
			return fmt.Errorf("experiments: %s/%s: %w", query, all[bi].Name, err)
		}
		res[bi] = evs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// largestFirst orders aggregate indices by descending distinct lengths
// over all classes, ties in suite order. A fold's time tracks that count
// (on the scale-1 I side vortex has 67k lengths, gzip 4.4k), so taking
// the largest first keeps a long fold from starting last and leaving the
// other workers idle.
func largestFirst(aggs []*interval.Aggregates) []int {
	size := make([]int, len(aggs))
	order := make([]int, len(aggs))
	for i, agg := range aggs {
		order[i] = i
		if agg == nil {
			continue // Evaluate reports it
		}
		for _, c := range agg.Classes() {
			size[i] += len(c.Lengths)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(size[b], size[a]) })
	return order
}

// sideAggregates returns each benchmark's aggregates for the chosen cache
// side, in suite order.
func sideAggregates(all []*BenchmarkData, iCache bool) []*interval.Aggregates {
	aggs := make([]*interval.Aggregates, len(all))
	for bi, bd := range all {
		_, aggs[bi] = bd.Side(iCache)
	}
	return aggs
}

// resolveSweepPolicies validates a (scheme, param, values) sweep request
// against the default registry and builds one policy per value at tech;
// shared by the suite-wide and scenario-scoped parameter sweeps. The
// scheme and parameter resolve once; each policy, and the error for the
// first bad value, are exactly BuildPolicy's for that value's spec. It
// returns the canonical scheme name for error labels.
func resolveSweepPolicies(scheme, param string, tech power.Technology, values []leakage.ParamValue) ([]leakage.Policy, string, error) {
	if len(values) == 0 {
		return nil, "", fmt.Errorf("%w: empty parameter sweep", ErrBadOption)
	}
	sw, err := leakage.DefaultRegistry().Sweep(scheme, param)
	if err != nil {
		return nil, "", badPolicy(err)
	}
	pols := make([]leakage.Policy, len(values))
	for vi, v := range values {
		pol, err := sw.Build(tech, v)
		if err != nil {
			return nil, "", badPolicy(err)
		}
		pols[vi] = pol
	}
	return pols, sw.Scheme(), nil
}

// SweepThetaContext is the theta-specific compat shim over
// SweepParamContext: it sweeps the scheme's positional parameter
// ("opt-sleep", "opt-hybrid", "sleep-decay", ...) across the given uint
// values, exactly as the pre-registry sweep did.
func (s *Suite) SweepThetaContext(ctx context.Context, scheme string, iCache bool, tech power.Technology, thetas []uint64) ([]SweepPoint, error) {
	if len(thetas) == 0 {
		return nil, fmt.Errorf("%w: empty theta sweep", ErrBadOption)
	}
	values := make([]leakage.ParamValue, len(thetas))
	for i, theta := range thetas {
		values[i] = leakage.Uint(theta)
	}
	pts, err := s.SweepParamContext(ctx, scheme, "", iCache, tech, values)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(pts))
	for i, p := range pts {
		out[i] = SweepPoint{Theta: thetas[i], Savings: p.Savings}
	}
	return out, nil
}

// GeometricThetas is the geometrically spaced theta ladder from from to
// to with up to points samples, deduplicated after rounding — the dense
// sweep spacing of `experiments -only sweep` and the serving layer's
// sweep endpoint. It is {from} when points <= 1 or from >= to.
func GeometricThetas(from, to uint64, points int) []uint64 {
	if points <= 1 || from >= to {
		return []uint64{from}
	}
	ratio := math.Pow(float64(to)/float64(from), 1/float64(points-1))
	out := make([]uint64, 0, points)
	last := uint64(0)
	for i := 0; i < points; i++ {
		v := uint64(math.Round(float64(from) * math.Pow(ratio, float64(i))))
		if v <= last {
			continue
		}
		out = append(out, v)
		last = v
	}
	return out
}

// Workers reports the suite's resolved parallelism bound (WithWorkers,
// defaulting to GOMAXPROCS); the serving layer sizes its admission
// semaphore off it so HTTP concurrency and simulation concurrency share
// one budget.
func (s *Suite) Workers() int { return s.poolWorkers() }
