// Command leakbench is leakbound's end-to-end benchmark. It drives the
// three ways the repository is used — regenerating RESULTS.txt with the
// experiments binary, scripted sweeps and Pareto queries against an
// in-process experiments.Suite, and HTTP traffic against leakaged — checks
// every timed operation's output, and reports the metrics BENCHMARK.json
// declares.
//
// Usage:
//
//	leakbench [-workload paper,explore,serve] [-seed n] [-seconds s]
//	          [-trace 0|1] [-out runs.jsonl] [-root dir] [-bin dir]
//	          [-work dir]
//	leakbench -compare base.jsonl change.jsonl
//
// A run prints one "name value unit" line per metric and, as its last
// line, a JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics for an untraced run, the per-layer metrics for a
// traced one (-trace 1), which also writes its spans to
// WORK/trace-<workload>-seed<n>.json. -out appends a record of each run,
// and -compare judges two such files against the bounds in
// BENCHMARK.json. benchmark/run.sh builds the binaries from source and
// runs this command; see benchmark/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each workload sets up; setup_s is the
// median, so one slow set-up cannot move it.
const setupReps = 3

// runDeadline bounds one workload run beyond its measured window, leaving
// room inside three minutes for a daemon's drain timeout.
const runDeadline = 120 * time.Second

// options are the parsed flags that shape a run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	scale   float64 // multiplies every simulation scale: 1, except in the smoke test
	root    string
	bin     string
	work    string
}

// window is the measured duration of one workload run.
func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// env is what a workload runs with.
type env struct {
	ctx  context.Context
	opt  options
	tr   *tracer // nil for an untraced run
	log  io.Writer
	pace *pacer // probes the host's speed between measured operations
}

// logf prints a progress line (prefixed "#", so it never parses as a
// metric line).
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "# "+format+"\n", args...)
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	wrong             []string // first few correctness failures
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string]int // sample count behind a metric
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// markWrong records an operation whose output failed its check.
func (r *result) markWrong(format string, args ...any) {
	r.failed++
	if len(r.wrong) < 5 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// tail sets a per-layer tail percentile, or 0 when the sample is too
// small to support it (the refusal is logged).
func (r *result) tail(e *env, name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		e.logf("%s not reported: %v", name, err)
	}
	r.layer[name] = v
	r.samples[name] = len(xs)
}

// notExercised zeroes per-layer metrics of layers this workload sends no
// traffic through.
func (r *result) notExercised(names ...string) {
	for _, n := range names {
		r.layer[n] = 0
	}
}

// workloadFn runs one workload.
type workloadFn func(e *env) (*result, error)

var workloadFns = map[string]workloadFn{
	"paper":   runPaper,
	"explore": runExplore,
	"serve":   runServe,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakbench:", err)
		os.Exit(1)
	}
}

// run parses args and runs the requested workloads or comparison.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("leakbench", flag.ContinueOnError)
	workloads := fs.String("workload", "paper,explore,serve", "comma-separated workloads to run")
	seed := fs.Uint64("seed", 1, "seed every workload input is drawn from")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (0 = run_seconds from BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "1 = traced run: record spans, write the trace and report per-layer metrics")
	root := fs.String("root", ".", "repository checkout under test")
	bin := fs.String("bin", "", "directory holding the experiments and leakaged binaries (default ROOT/.bench_build/bin)")
	work := fs.String("work", "", "scratch directory for caches and traces (default ROOT/.bench_build/work)")
	out := fs.String("out", "", "append a JSON record of each run to this file")
	compare := fs.Bool("compare", false, "compare two -out files: leakbench -compare BASE CHANGE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadBenchSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two record files")
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *traceFlag)
	}
	if *seconds < 0 {
		return errors.New("-seconds must be non-negative")
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, scale: 1,
		root: *root, bin: *bin, work: *work}
	if opt.seconds == 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	if opt.bin == "" {
		opt.bin = filepath.Join(opt.root, ".bench_build", "bin")
	}
	if opt.work == "" {
		opt.work = filepath.Join(opt.root, ".bench_build", "work")
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return err
	}
	for _, name := range strings.Split(*workloads, ",") {
		name = strings.TrimSpace(name)
		fn, ok := workloadFns[name]
		if _, declared := spec.workload(name); !ok || !declared {
			return fmt.Errorf("unknown workload %q", name)
		}
		if err := runOne(ctx, spec, opt, name, fn, stdout, *out); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// runOne runs one workload and prints its metrics and result line.
func runOne(ctx context.Context, spec *benchSpec, opt options, name string, fn workloadFn, stdout io.Writer, outPath string) error {
	ctx, cancel := context.WithTimeout(ctx, opt.window()+runDeadline)
	defer cancel()
	e := &env{ctx: ctx, opt: opt, log: stdout, pace: newPacer()}
	if opt.trace {
		e.tr = newTracer()
	}
	e.logf("workload %s seed %d seconds %g trace %v", name, opt.seed, opt.seconds, opt.trace)
	for i := 0; i < paceStartTicks; i++ {
		e.pace.tick()
	}
	r, err := fn(e)
	if err != nil {
		return err
	}
	for _, w := range r.wrong {
		e.logf("WRONG: %s", w)
	}
	if err := checkMetrics("end_to_end", spec.EndToEnd, r.e2e); err != nil {
		return err
	}
	raw := maps.Clone(r.e2e)
	e.pace.normalise(spec.EndToEnd, r.e2e)
	paceMS := float64(e.pace.median()) / float64(time.Millisecond)
	reported, defs := r.e2e, spec.EndToEnd
	if opt.trace {
		r.layer["host.pace_ms"] = paceMS
		r.samples["host.pace_ms"] = len(e.pace.ticks)
		if err := checkMetrics("per_layer", spec.PerLayer, r.layer); err != nil {
			return err
		}
		reported, defs = r.layer, spec.PerLayer
		path := filepath.Join(opt.work, fmt.Sprintf("trace-%s-seed%d.json", name, opt.seed))
		if err := e.tr.write(path, name, opt.seed); err != nil {
			return err
		}
		e.logf("trace written to %s", path)
	}
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}
	// Every end-to-end metric is printed on every run; in a traced run
	// they are the traced values, whose difference from an untraced run
	// is the tracing overhead (see -compare).
	e.logf("host pace %.4g ms (median of %d probes; reference %v): as measured, %s",
		paceMS, len(e.pace.ticks), paceRef, formatMetrics(spec.EndToEnd, raw))
	printMetrics(stdout, spec.EndToEnd, r.e2e, r.samples)
	if opt.trace {
		printMetrics(stdout, spec.PerLayer, r.layer, r.samples)
	}
	fmt.Fprintf(stdout, "fail_share %v fraction n=%d\n", float64(r.failed)/float64(r.attempted), r.attempted)

	line, err := resultLine(r, defs, reported)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := appendRecord(outPath, runRecord{Workload: name, Seed: opt.seed, Trace: opt.trace,
			Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
			EndToEnd: r.e2e, Measured: raw, PaceMS: paceMS, PerLayer: r.layer}); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// resultLine is the run's last output line: whether every attempted
// operation succeeded with a correct output, the counts, and the reported
// metrics with their units.
func resultLine(r *result, defs []metricDef, reported map[string]float64) ([]byte, error) {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(defs))
	for _, m := range defs {
		metrics[m.Name] = metricOut{reported[m.Name], m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
}

// printMetrics prints one "name value unit [n=samples]" line per metric.
func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64, samples map[string]int) {
	for _, m := range defs {
		line := fmt.Sprintf("%s %v %s", m.Name, vals[m.Name], m.Unit)
		if n, ok := samples[m.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
}

// formatMetrics renders values as "name value unit" pairs.
func formatMetrics(defs []metricDef, vals map[string]float64) string {
	parts := make([]string, len(defs))
	for i, m := range defs {
		parts[i] = fmt.Sprintf("%s %.6g %s", m.Name, vals[m.Name], m.Unit)
	}
	return strings.Join(parts, ", ")
}

// checkMetrics requires got to hold exactly the declared metrics, each a
// finite number.
func checkMetrics(kind string, defs []metricDef, got map[string]float64) error {
	declared := map[string]bool{}
	for _, m := range defs {
		declared[m.Name] = true
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("%s metric %s was not measured", kind, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s metric %s is %v", kind, m.Name, v)
		}
	}
	var extra []string
	for name := range got {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%s metrics %v are measured but not declared in BENCHMARK.json", kind, extra)
	}
	return nil
}

// runRecord is one line of an -out file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"` // at the reference pace
	Measured  map[string]float64 `json:"measured"`   // the end-to-end values as measured
	PaceMS    float64            `json:"pace_ms"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// appendRecord appends rec as one JSON line.
func appendRecord(path string, rec runRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
