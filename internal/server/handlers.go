package server

// The endpoint catalog. Everything under /api/v1 is a compute endpoint
// behind the cache/coalesce/admission pipeline; /healthz, /readyz, and
// the telemetry/pprof debug surface bypass it.
//
//	GET /healthz                 liveness (always 200 while the process runs)
//	GET /readyz                  readiness (503 once draining)
//	GET /api/v1/benchmarks       suite inventory: names, scale, workers
//	GET /api/v1/figures/1        ITRS leakage projection series
//	GET /api/v1/figures/7        sleep-vs-hybrid theta sweep   ?cache=i|d
//	GET /api/v1/figures/8        per-benchmark scheme savings  ?cache=i|d
//	GET /api/v1/figures/9        prefetchability breakdown     ?cache=i|d
//	GET /api/v1/figures/10       energy envelope (70nm)
//	GET /api/v1/tables/1         inflection points per technology
//	GET /api/v1/tables/2         technology-scaling savings
//	GET /api/v1/tables/3         Prefetch-A/B mode assignment
//	GET /api/v1/inflections      ?tech=70nm (default: all nodes)
//	GET /api/v1/policies         registered schemes + parameter schemas
//	GET /api/v1/eval             ?benchmark=&cache=&tech=&policy=spec
//	POST /api/v1/eval            {"benchmark"|"spec","cache","tech","policy"}
//	                             (policy: spec string or {"scheme","params"};
//	                             spec: inline workload spec evaluated ad hoc)
//	GET /api/v1/sweep            ?policy=&cache=&tech=&thetas=a,b,c |
//	                             ?from=&to=&points= (geometric spacing)
//	POST /api/v1/sweep           {"policy","param","cache","tech","values",
//	                             "spec"} (sweep any declared numeric
//	                             parameter; with spec, over that workload
//	                             alone instead of the suite average)
//	GET /api/v1/pareto           ?cache=&tech=&policy=spec (repeatable;
//	                             default: every scheme at its defaults)
//	POST /api/v1/pareto          {"cache","tech","policies":[...]}
//	GET /metrics, /metrics.json, /debug/vars, /debug/pprof/*

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"leakbound/internal/experiments"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/report"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload/spec"
)

// Admission weights: light endpoints take one unit; heavy ones (full-suite
// sweeps) take the whole capacity (clamped by the semaphore).
const (
	weightLight int64 = 1
	weightHeavy int64 = 1 << 62
)

// maxSweepPoints bounds a parameterized sweep so one query cannot request
// unbounded evaluation work.
const maxSweepPoints = 256

// registerRoutes builds the route table.
func (s *Server) registerRoutes() {
	s.mux.Handle("GET /healthz", s.instrument("/healthz",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		})))
	s.mux.Handle("GET /readyz", s.instrument("/readyz",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if s.draining.Load() {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		})))
	telemetry.RegisterDebugIn(s.mux, s.reg)

	s.handleCompute("GET /api/v1/benchmarks", "/api/v1/benchmarks", weightLight, s.handleBenchmarks)
	s.handleCompute("GET /api/v1/figures/1", "/api/v1/figures/1", weightLight, s.handleFigure1)
	s.handleCompute("GET /api/v1/figures/7", "/api/v1/figures/7", weightHeavy, s.handleFigure7)
	s.handleCompute("GET /api/v1/figures/8", "/api/v1/figures/8", weightHeavy, s.handleFigure8)
	s.handleCompute("GET /api/v1/figures/9", "/api/v1/figures/9", weightHeavy, s.handleFigure9)
	s.handleCompute("GET /api/v1/figures/10", "/api/v1/figures/10", weightLight, s.handleFigure10)
	s.handleCompute("GET /api/v1/tables/1", "/api/v1/tables/1", weightLight, s.handleTable1)
	s.handleCompute("GET /api/v1/tables/2", "/api/v1/tables/2", weightHeavy, s.handleTable2)
	s.handleCompute("GET /api/v1/tables/3", "/api/v1/tables/3", weightLight, s.handleTable3)
	s.handleCompute("GET /api/v1/inflections", "/api/v1/inflections", weightLight, s.handleInflections)
	s.handleCompute("GET /api/v1/policies", "/api/v1/policies", weightLight, s.handlePolicies)
	s.handleCompute("GET /api/v1/eval", "/api/v1/eval", weightLight, s.handleEval)
	s.handleCompute("POST /api/v1/eval", "/api/v1/eval", weightLight, s.handleEval)
	s.handleCompute("GET /api/v1/sweep", "/api/v1/sweep", weightHeavy, s.handleSweep)
	s.handleCompute("POST /api/v1/sweep", "/api/v1/sweep", weightHeavy, s.handleSweep)
	s.handleCompute("GET /api/v1/pareto", "/api/v1/pareto", weightHeavy, s.handlePareto)
	s.handleCompute("POST /api/v1/pareto", "/api/v1/pareto", weightHeavy, s.handlePareto)
}

// jsonBody marshals a response value; encoding/json is deterministic for
// a fixed value, which is what makes the ETag/cache layer sound.
func jsonBody(v any) ([]byte, string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, "", fmt.Errorf("server: encoding response: %w", err)
	}
	return append(b, '\n'), "application/json; charset=utf-8", nil
}

// queryCacheSide parses the ?cache= selector (default: instruction side).
func queryCacheSide(r *http.Request) (bool, error) {
	iCache, err := experiments.ParseCacheSide(r.URL.Query().Get("cache"))
	if err != nil {
		return false, &badRequestError{err: err}
	}
	return iCache, nil
}

// queryTechnology parses the ?tech= selector (default: the paper's 70nm).
func queryTechnology(r *http.Request) (power.Technology, error) {
	tech, err := experiments.ParseTechnology(r.URL.Query().Get("tech"))
	if err != nil {
		return power.Technology{}, &badRequestError{err: err}
	}
	return tech, nil
}

// cacheSideLabel renders the side the way responses spell it.
func cacheSideLabel(iCache bool) string {
	if iCache {
		return "i"
	}
	return "d"
}

func (s *Server) handleBenchmarks(_ context.Context, _ *http.Request) ([]byte, string, error) {
	return jsonBody(struct {
		Scale      float64  `json:"scale"`
		Workers    int      `json:"workers"`
		Benchmarks []string `json:"benchmarks"`
		Simulated  []string `json:"simulated"`
		Policies   []string `json:"policies"`
	}{
		Scale:      s.suite.Scale(),
		Workers:    s.suite.Workers(),
		Benchmarks: s.suite.BenchmarkNames(),
		Simulated:  s.suite.SortedNames(),
		Policies:   experiments.PolicyNames(),
	})
}

func (s *Server) handleFigure1(_ context.Context, _ *http.Request) ([]byte, string, error) {
	return jsonBody(struct {
		Series *report.Series `json:"series"`
	}{Series: experiments.Figure1Series()})
}

func (s *Server) handleFigure7(ctx context.Context, r *http.Request) ([]byte, string, error) {
	iCache, err := queryCacheSide(r)
	if err != nil {
		return nil, "", err
	}
	sleep, hybrid, err := experiments.Figure7Context(ctx, s.suite, iCache)
	if err != nil {
		return nil, "", err
	}
	return jsonBody(struct {
		Cache  string         `json:"cache"`
		Sleep  *report.Series `json:"sleep"`
		Hybrid *report.Series `json:"hybrid"`
	}{Cache: cacheSideLabel(iCache), Sleep: sleep, Hybrid: hybrid})
}

func (s *Server) handleFigure8(ctx context.Context, r *http.Request) ([]byte, string, error) {
	iCache, err := queryCacheSide(r)
	if err != nil {
		return nil, "", err
	}
	rows, err := experiments.Figure8Context(ctx, s.suite, iCache)
	if err != nil {
		return nil, "", err
	}
	policies := make([]string, 0, len(experiments.Figure8Policies()))
	for _, p := range experiments.Figure8Policies() {
		policies = append(policies, p.Name())
	}
	type rowJSON struct {
		Benchmark string    `json:"benchmark"`
		Savings   []float64 `json:"savings"`
	}
	out := make([]rowJSON, 0, len(rows))
	for _, row := range rows {
		out = append(out, rowJSON{Benchmark: row.Benchmark, Savings: row.Savings})
	}
	return jsonBody(struct {
		Cache    string    `json:"cache"`
		Policies []string  `json:"policies"`
		Rows     []rowJSON `json:"rows"`
	}{Cache: cacheSideLabel(iCache), Policies: policies, Rows: out})
}

func (s *Server) handleFigure9(ctx context.Context, r *http.Request) ([]byte, string, error) {
	iCache, err := queryCacheSide(r)
	if err != nil {
		return nil, "", err
	}
	p, err := experiments.Figure9Context(ctx, s.suite, iCache)
	if err != nil {
		return nil, "", err
	}
	return jsonBody(struct {
		Cache             string  `json:"cache"`
		A                 float64 `json:"a"`
		B                 float64 `json:"b"`
		ShortCount        uint64  `json:"short_count"`
		MidCount          uint64  `json:"mid_count"`
		LongCount         uint64  `json:"long_count"`
		MidNL             uint64  `json:"mid_nl"`
		MidStride         uint64  `json:"mid_stride"`
		LongNL            uint64  `json:"long_nl"`
		LongStride        uint64  `json:"long_stride"`
		PrefetchableShare float64 `json:"prefetchable_share"`
		NLShare           float64 `json:"nl_share"`
		StrideShare       float64 `json:"stride_share"`
	}{
		Cache: cacheSideLabel(iCache), A: p.A, B: p.B,
		ShortCount: p.ShortCount, MidCount: p.MidCount, LongCount: p.LongCount,
		MidNL: p.MidNL, MidStride: p.MidStride, LongNL: p.LongNL, LongStride: p.LongStride,
		PrefetchableShare: p.PrefetchableShare(), NLShare: p.NLShare(), StrideShare: p.StrideShare(),
	})
}

func (s *Server) handleFigure10(_ context.Context, _ *http.Request) ([]byte, string, error) {
	pts, err := experiments.Figure10()
	if err != nil {
		return nil, "", err
	}
	type pointJSON struct {
		Length   float64 `json:"length"`
		Active   float64 `json:"active"`
		Drowsy   float64 `json:"drowsy,omitempty"`
		Sleep    float64 `json:"sleep,omitempty"`
		Envelope float64 `json:"envelope"`
		Best     string  `json:"best"`
	}
	out := make([]pointJSON, 0, len(pts))
	for _, p := range pts {
		// +Inf (mode does not fit) is not representable in JSON; omit.
		pj := pointJSON{Length: p.Length, Active: p.Active, Envelope: p.Minimum, Best: p.Best.String()}
		if !math.IsInf(p.Drowsy, 1) {
			pj.Drowsy = p.Drowsy
		}
		if !math.IsInf(p.Sleep, 1) {
			pj.Sleep = p.Sleep
		}
		out = append(out, pj)
	}
	return jsonBody(struct {
		Technology string      `json:"technology"`
		Points     []pointJSON `json:"points"`
	}{Technology: power.Default().Name, Points: out})
}

func (s *Server) handleTable1(_ context.Context, _ *http.Request) ([]byte, string, error) {
	t, err := experiments.Table1()
	if err != nil {
		return nil, "", err
	}
	return jsonBody(t)
}

func (s *Server) handleTable2(ctx context.Context, _ *http.Request) ([]byte, string, error) {
	t, err := experiments.Table2Context(ctx, s.suite)
	if err != nil {
		return nil, "", err
	}
	return jsonBody(t)
}

func (s *Server) handleTable3(_ context.Context, _ *http.Request) ([]byte, string, error) {
	return jsonBody(experiments.Table3())
}

func (s *Server) handleInflections(_ context.Context, r *http.Request) ([]byte, string, error) {
	techs := power.Technologies()
	if name := r.URL.Query().Get("tech"); name != "" {
		tech, err := queryTechnology(r)
		if err != nil {
			return nil, "", err
		}
		techs = []power.Technology{tech}
	}
	type inflectionJSON struct {
		Technology string  `json:"technology"`
		Vdd        float64 `json:"vdd"`
		Vth        float64 `json:"vth"`
		A          float64 `json:"a"`
		B          float64 `json:"b"`
	}
	out := make([]inflectionJSON, 0, len(techs))
	for _, tech := range techs {
		a, b, err := tech.InflectionPoints()
		if err != nil {
			return nil, "", fmt.Errorf("server: %s: %w", tech.Name, err)
		}
		out = append(out, inflectionJSON{Technology: tech.Name, Vdd: tech.Vdd, Vth: tech.Vth, A: a, B: b})
	}
	return jsonBody(struct {
		Inflections []inflectionJSON `json:"inflections"`
	}{Inflections: out})
}

// decodeBody decodes an optional JSON request body into dst. An absent or
// empty body leaves dst untouched; a malformed one is a 400.
func decodeBody(r *http.Request, dst any) error {
	if r.Body == nil {
		return nil
	}
	b, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return badRequestf("server: reading request body: %v", err)
	}
	if len(bytes.TrimSpace(b)) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequestf("server: bad request body: %v", err)
	}
	return nil
}

// policySpecJSON accepts a policy in a POST body as either a spec string
// ("opt-sleep@8192") or a structured object ({"scheme": "opt-sleep",
// "params": {"theta": 8192}}).
type policySpecJSON struct {
	spec leakage.PolicySpec
	set  bool
}

func (p *policySpecJSON) UnmarshalJSON(b []byte) error {
	b = bytes.TrimSpace(b)
	if len(b) == 0 || string(b) == "null" {
		return nil
	}
	if b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		ps, err := experiments.ParsePolicySpec(s)
		if err != nil {
			return err
		}
		p.spec, p.set = ps, true
		return nil
	}
	var ps leakage.PolicySpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ps); err != nil {
		return err
	}
	if strings.TrimSpace(ps.Scheme) == "" {
		return fmt.Errorf("policy object missing scheme (known: %s)", strings.Join(experiments.PolicyNames(), ", "))
	}
	p.spec, p.set = ps, true
	return nil
}

// override returns the body field when set, otherwise the query value.
func override(body, query string) string {
	if strings.TrimSpace(body) != "" {
		return body
	}
	return query
}

// asBadPolicy downgrades policy parse/build failures to 400s while letting
// pipeline errors keep their status.
func asBadPolicy(err error) error {
	if errors.Is(err, experiments.ErrUnknownPolicy) {
		return &badRequestError{err: err}
	}
	return err
}

func (s *Server) handlePolicies(_ context.Context, _ *http.Request) ([]byte, string, error) {
	return jsonBody(struct {
		Schemes []leakage.Registration `json:"schemes"`
	}{Schemes: leakage.DefaultRegistry().Schemes()})
}

// specPresent reports whether a raw "spec" body field carries a value.
func specPresent(raw json.RawMessage) bool {
	b := bytes.TrimSpace(raw)
	return len(b) > 0 && string(b) != "null"
}

// parseSpecScenario parses an inline workload spec from a request body.
// Parse and validation failures surface as 400s carrying the spec
// package's positional message (e.g. "spec.phases[2].mix: weights sum
// to 0") so clients can point at the offending field.
func parseSpecScenario(raw json.RawMessage) (*spec.Spec, error) {
	sp, err := spec.Parse(raw)
	if err != nil {
		return nil, &badRequestError{err: fmt.Errorf("server: bad workload spec: %w", err)}
	}
	return sp, nil
}

func (s *Server) handleEval(ctx context.Context, r *http.Request) ([]byte, string, error) {
	q := r.URL.Query()
	var body struct {
		Benchmark string          `json:"benchmark"`
		Spec      json.RawMessage `json:"spec"`
		Cache     string          `json:"cache"`
		Tech      string          `json:"tech"`
		Policy    policySpecJSON  `json:"policy"`
	}
	if err := decodeBody(r, &body); err != nil {
		return nil, "", err
	}
	benchmark := strings.TrimSpace(override(body.Benchmark, q.Get("benchmark")))
	hasSpec := specPresent(body.Spec)
	if hasSpec && benchmark != "" {
		return nil, "", badRequestf("server: benchmark and spec are mutually exclusive")
	}
	if !hasSpec && benchmark == "" {
		return nil, "", badRequestf("server: missing required parameter benchmark (known: %s)",
			strings.Join(s.suite.BenchmarkNames(), ", "))
	}
	if !hasSpec && !s.suite.KnownBenchmark(benchmark) {
		return nil, "", badRequestf("server: unknown benchmark %q (known: %s)",
			benchmark, strings.Join(s.suite.BenchmarkNames(), ", "))
	}
	iCache, err := experiments.ParseCacheSide(override(body.Cache, q.Get("cache")))
	if err != nil {
		return nil, "", &badRequestError{err: err}
	}
	tech, err := experiments.ParseTechnology(override(body.Tech, q.Get("tech")))
	if err != nil {
		return nil, "", &badRequestError{err: err}
	}
	var pol leakage.Policy
	if body.Policy.set {
		pol, err = experiments.BuildPolicy(body.Policy.spec, tech)
	} else {
		policySpec := q.Get("policy")
		if policySpec == "" {
			policySpec = "opt-hybrid"
		}
		pol, err = experiments.ParsePolicy(policySpec, tech)
	}
	if err != nil {
		return nil, "", &badRequestError{err: err}
	}
	var ev experiments.CellEvaluation
	if hasSpec {
		sp, err := parseSpecScenario(body.Spec)
		if err != nil {
			return nil, "", err
		}
		ev, err = s.suite.EvaluateScenarioCellContext(ctx, sp, iCache, tech, pol)
		if err != nil {
			return nil, "", err
		}
	} else {
		ev, err = s.suite.EvaluateCellContext(ctx, benchmark, iCache, tech, pol)
		if err != nil {
			return nil, "", err
		}
	}
	return jsonBody(ev)
}

func (s *Server) handleSweep(ctx context.Context, r *http.Request) ([]byte, string, error) {
	q := r.URL.Query()
	var body struct {
		Policy string               `json:"policy"`
		Param  string               `json:"param"`
		Cache  string               `json:"cache"`
		Tech   string               `json:"tech"`
		Spec   json.RawMessage      `json:"spec"`
		Values []leakage.ParamValue `json:"values"`
	}
	if err := decodeBody(r, &body); err != nil {
		return nil, "", err
	}
	var scenario *spec.Spec
	if specPresent(body.Spec) {
		sp, err := parseSpecScenario(body.Spec)
		if err != nil {
			return nil, "", err
		}
		scenario = sp
	}
	scheme := strings.ToLower(strings.TrimSpace(override(body.Policy, q.Get("policy"))))
	if scheme == "" {
		scheme = "opt-hybrid"
	}
	reg, ok := leakage.DefaultRegistry().Lookup(scheme)
	if !ok {
		return nil, "", badRequestf("server: unknown policy scheme %q (known: %s)",
			scheme, strings.Join(experiments.PolicyNames(), ", "))
	}
	iCache, err := experiments.ParseCacheSide(override(body.Cache, q.Get("cache")))
	if err != nil {
		return nil, "", &badRequestError{err: err}
	}
	tech, err := experiments.ParseTechnology(override(body.Tech, q.Get("tech")))
	if err != nil {
		return nil, "", &badRequestError{err: err}
	}
	if len(body.Values) > 0 {
		// Generalized sweep: any declared numeric parameter.
		if len(body.Values) > maxSweepPoints {
			return nil, "", badRequestf("server: sweep capped at %d values, got %d", maxSweepPoints, len(body.Values))
		}
		param := strings.ToLower(strings.TrimSpace(body.Param))
		var points []experiments.ParamSweepPoint
		var benchmark string
		if scenario != nil {
			points, err = s.suite.SweepParamScenarioContext(ctx, scenario, scheme, param, iCache, tech, body.Values)
			benchmark = scenario.ScenarioName()
		} else {
			points, err = s.suite.SweepParamContext(ctx, scheme, param, iCache, tech, body.Values)
		}
		if err != nil {
			return nil, "", asBadPolicy(err)
		}
		if param == "" {
			param = reg.Positional
		}
		return jsonBody(struct {
			Policy     string                        `json:"policy"`
			Param      string                        `json:"param"`
			Cache      string                        `json:"cache"`
			Technology string                        `json:"technology"`
			Benchmark  string                        `json:"benchmark,omitempty"`
			Points     []experiments.ParamSweepPoint `json:"points"`
		}{Policy: scheme, Param: param, Cache: cacheSideLabel(iCache), Technology: tech.Name, Benchmark: benchmark, Points: points})
	}
	// Theta ladder: any scheme whose positional parameter is a uint.
	if sch, ok := reg.Schema(reg.Positional); reg.Positional == "" || !ok || sch.Kind != leakage.UintParam {
		return nil, "", badRequestf("server: theta sweep needs a scheme with a uint positional parameter (e.g. opt-sleep, opt-hybrid, sleep-decay), not %q", scheme)
	}
	thetas, err := sweepThetas(q.Get("thetas"), q.Get("from"), q.Get("to"), q.Get("points"))
	if err != nil {
		return nil, "", err
	}
	var points []experiments.SweepPoint
	var benchmark string
	if scenario != nil {
		// The spec's own theta ladder: one EvaluateMany pass over the
		// scenario's aggregates instead of the suite-wide average.
		values := make([]leakage.ParamValue, len(thetas))
		for i, theta := range thetas {
			values[i] = leakage.Uint(theta)
		}
		pts, err := s.suite.SweepParamScenarioContext(ctx, scenario, scheme, "", iCache, tech, values)
		if err != nil {
			return nil, "", asBadPolicy(err)
		}
		points = make([]experiments.SweepPoint, len(pts))
		for i, p := range pts {
			points[i] = experiments.SweepPoint{Theta: thetas[i], Savings: p.Savings}
		}
		benchmark = scenario.ScenarioName()
	} else {
		points, err = s.suite.SweepThetaContext(ctx, scheme, iCache, tech, thetas)
		if err != nil {
			return nil, "", asBadPolicy(err)
		}
	}
	return jsonBody(struct {
		Policy     string                   `json:"policy"`
		Cache      string                   `json:"cache"`
		Technology string                   `json:"technology"`
		Benchmark  string                   `json:"benchmark,omitempty"`
		Points     []experiments.SweepPoint `json:"points"`
	}{Policy: scheme, Cache: cacheSideLabel(iCache), Technology: tech.Name, Benchmark: benchmark, Points: points})
}

func (s *Server) handlePareto(ctx context.Context, r *http.Request) ([]byte, string, error) {
	q := r.URL.Query()
	var body struct {
		Cache    string           `json:"cache"`
		Tech     string           `json:"tech"`
		Policies []policySpecJSON `json:"policies"`
	}
	if err := decodeBody(r, &body); err != nil {
		return nil, "", err
	}
	iCache, err := experiments.ParseCacheSide(override(body.Cache, q.Get("cache")))
	if err != nil {
		return nil, "", &badRequestError{err: err}
	}
	tech, err := experiments.ParseTechnology(override(body.Tech, q.Get("tech")))
	if err != nil {
		return nil, "", &badRequestError{err: err}
	}
	var specs []leakage.PolicySpec
	for _, p := range body.Policies {
		if p.set {
			specs = append(specs, p.spec)
		}
	}
	if len(specs) == 0 {
		for _, raw := range q["policy"] {
			ps, err := experiments.ParsePolicySpec(raw)
			if err != nil {
				return nil, "", &badRequestError{err: err}
			}
			specs = append(specs, ps)
		}
	}
	if len(specs) > maxSweepPoints {
		return nil, "", badRequestf("server: pareto capped at %d policies, got %d", maxSweepPoints, len(specs))
	}
	points, err := s.suite.ParetoFrontierContext(ctx, iCache, tech, specs)
	if err != nil {
		return nil, "", asBadPolicy(err)
	}
	return jsonBody(struct {
		Cache      string                    `json:"cache"`
		Technology string                    `json:"technology"`
		Points     []experiments.ParetoPoint `json:"points"`
	}{Cache: cacheSideLabel(iCache), Technology: tech.Name, Points: points})
}

// sweepThetas resolves the sweep's sample points: an explicit csv list, or
// a geometric from/to/points ladder defaulting to the Figure 7 span.
func sweepThetas(csv, fromStr, toStr, pointsStr string) ([]uint64, error) {
	if csv != "" {
		parts := strings.Split(csv, ",")
		if len(parts) > maxSweepPoints {
			return nil, badRequestf("server: sweep capped at %d thetas, got %d", maxSweepPoints, len(parts))
		}
		out := make([]uint64, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
			if err != nil || v == 0 {
				return nil, badRequestf("server: bad theta %q (want positive integers)", p)
			}
			out = append(out, v)
		}
		return out, nil
	}
	// 256 dense default points: the aggregate fast path answers a sweep
	// point in O(log buckets), so the full ladder costs what a dozen
	// points used to.
	from, to, points := uint64(1057), uint64(10000), 256
	var err error
	if fromStr != "" {
		if from, err = strconv.ParseUint(fromStr, 10, 64); err != nil || from == 0 {
			return nil, badRequestf("server: bad from %q", fromStr)
		}
	}
	if toStr != "" {
		if to, err = strconv.ParseUint(toStr, 10, 64); err != nil || to == 0 {
			return nil, badRequestf("server: bad to %q", toStr)
		}
	}
	if pointsStr != "" {
		if points, err = strconv.Atoi(pointsStr); err != nil || points < 1 {
			return nil, badRequestf("server: bad points %q", pointsStr)
		}
	}
	if to < from {
		return nil, badRequestf("server: sweep range inverted: from=%d > to=%d", from, to)
	}
	if points > maxSweepPoints {
		return nil, badRequestf("server: sweep capped at %d points, got %d", maxSweepPoints, points)
	}
	return experiments.GeometricThetas(from, to, points), nil
}
