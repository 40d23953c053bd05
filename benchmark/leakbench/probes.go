package main

// Layer probes every traced run makes, each over the inputs its workload
// uses: the leakage kernel replayed over a suite's aggregates, the
// workload-spec compiler over the specs leakaged is sent, and the
// simulator ladder (ladder.go); plus the telemetry-delta helpers.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload/spec"
)

// kernelSweeps is how many of a workload's sweeps the kernel probe
// replays.
const kernelSweeps = 300

// sweepQuery is one dense theta sweep: a scheme's positional parameter
// over a ladder, on one cache side at one technology.
type sweepQuery struct {
	scheme string
	iCache bool
	tech   power.Technology
	thetas []uint64
}

// policies builds the sweep's policy list, one policy per theta.
func (q sweepQuery) policies() ([]leakage.Policy, error) {
	reg, ok := leakage.DefaultRegistry().Lookup(q.scheme)
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q", q.scheme)
	}
	out := make([]leakage.Policy, len(q.thetas))
	for i, th := range q.thetas {
		pol, err := experiments.BuildPolicy(leakage.PolicySpec{Scheme: q.scheme,
			Params: leakage.Params{reg.Positional: leakage.Uint(th)}}, q.tech)
		if err != nil {
			return nil, err
		}
		out[i] = pol
	}
	return out, nil
}

// kernelStats is the leakage kernel's cost over a replay.
type kernelStats struct {
	evals          uint64
	elapsed        time.Duration
	mallocs, bytes uint64
}

// report writes the kernel metrics into r.
func (k kernelStats) report(r *result) {
	n := float64(k.evals)
	r.layer["leakage.ns_per_eval"] = ratio(float64(k.elapsed.Nanoseconds()), n)
	r.layer["leakage.mallocs_per_eval"] = ratio(float64(k.mallocs), n)
	r.layer["leakage.bytes_per_eval"] = ratio(float64(k.bytes), n)
}

// kernelProbe replays each sweep's policy list through
// leakage.EvaluateMany directly on the suite's aggregates — the kernel a
// sweep query spends its time in, without the suite's pool and
// reduction around it.
func kernelProbe(ctx context.Context, tr *tracer, suite *experiments.Suite, sweeps []sweepQuery) (kernelStats, error) {
	all, err := suite.AllContext(ctx)
	if err != nil {
		return kernelStats{}, err
	}
	root := tr.start(nil, "kernel.replay", "harness")
	defer root.end(map[string]any{"sweeps": len(sweeps)})
	var k kernelStats
	for _, q := range sweeps {
		pols, err := q.policies()
		if err != nil {
			return kernelStats{}, err
		}
		sp := tr.start(root, "leakage.EvaluateMany", "leakage")
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, bd := range all {
			_, agg := bd.Side(q.iCache)
			if _, err := leakage.EvaluateMany(q.tech, agg, pols); err != nil {
				return kernelStats{}, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		sp.end(map[string]any{"scheme": q.scheme, "policies": len(pols), "benchmarks": len(all)})
		k.elapsed += d
		k.evals += uint64(len(pols) * len(all))
		k.mallocs += m1.Mallocs - m0.Mallocs
		k.bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return k, nil
}

// specVariants returns the workload specs leakaged is sent: every
// examples/specs/*.json with its seed set to each of 0..3, as canonical
// JSON, in a fixed order.
func specVariants(root string) ([][]byte, error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "specs", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no workload specs under %s", filepath.Join(root, "examples", "specs"))
	}
	sort.Strings(paths)
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		for seed := uint64(0); seed < 4; seed++ {
			sp, err := spec.Parse(raw)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			sp.Seed = seed
			out = append(out, sp.Canonical())
		}
	}
	return out, nil
}

// specCompileProbe times spec.Parse + Compile on each body and returns the
// mean in microseconds.
func specCompileProbe(tr *tracer, bodies [][]byte, scale float64) (float64, error) {
	root := tr.start(nil, "spec.compile", "harness")
	defer root.end(map[string]any{"specs": len(bodies)})
	var total time.Duration
	for _, b := range bodies {
		sp := tr.start(root, "spec.ParseCompile", "workload")
		t0 := time.Now()
		s, err := spec.Parse(b)
		if err == nil {
			_, err = s.Compile(scale)
		}
		total += time.Since(t0)
		sp.end(nil)
		if err != nil {
			return 0, err
		}
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(len(bodies)), nil
}

// traceLayers adds the per-layer metrics every traced run measures the
// same way: the simulator ladder at the workload's scale and the spec
// compiler over the specs leakaged is sent. It returns the ladder's
// reference suite.
func traceLayers(e *env, r *result, scale float64) (*experiments.Suite, error) {
	bodies, err := specVariants(e.opt.root)
	if err != nil {
		return nil, err
	}
	us, err := specCompileProbe(e.tr, bodies, scale)
	if err != nil {
		return nil, err
	}
	r.layer["workload.spec_compile_us"] = us
	e.logf("running the simulator ladder at scale %g", scale)
	st, ref, err := runLadder(e.ctx, e.tr, e.opt.work, scale)
	if err != nil {
		return nil, err
	}
	st.report(r)
	return ref, nil
}

// histDelta returns how much a histogram's sum grew between snapshots.
func histDelta(a, b telemetry.Snapshot, scope, name string) float64 {
	return float64(b[scope].Histograms[name].Sum) - float64(a[scope].Histograms[name].Sum)
}
