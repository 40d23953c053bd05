package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median and statistics.quantiles(n=4).
	cases := []struct {
		in         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 9, 3}, 4, 1.5, 4, 8},
		{[]float64{2.5, 7.25}, 4.875, 1.3125, 4.875, 8.4375},
	}
	for _, c := range cases {
		in := slices.Clone(c.in)
		if got := median(in); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.med)
		}
		q1, q2, q3 := quartiles(in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if !slices.Equal(in, c.in) {
			t.Errorf("input %v reordered to %v", c.in, in)
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); got != (3.75-1.25)/2.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 beyond
		{999, 0.99, 0, false},   // 9 beyond
		{100, 0.99, 0, false},   // 1 beyond
		{100, 0.9, 90, true},    // 10 beyond
		{20, 0.5, 10, true},     // 10 beyond the median
		{19, 0.5, 0, false},     // 9 beyond
		{5000, 0.999, 0, false}, // 5 beyond
		{10000, 0.999, 9990, true},
	} {
		got, err := percentile(seq(c.n), c.p)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("percentile(%d samples, %g) = %v, %v; want %v", c.n, c.p, got, err, c.want)
		}
		if !c.ok && !errors.Is(err, errTooFewSamples) {
			t.Errorf("percentile(%d samples, %g) = %v, %v; want errTooFewSamples", c.n, c.p, got, err)
		}
	}
	if _, err := percentile(seq(100), 1); err == nil {
		t.Error("percentile accepted p = 1")
	}
}

func TestPoissonScheduleReproduces(t *testing.T) {
	a := poissonSchedule(newRand(7, "serve"), 400, 10*time.Second)
	b := poissonSchedule(newRand(7, "serve"), 400, 10*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(newRand(8, "serve"), 400, 10*time.Second); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if c := poissonSchedule(newRand(7, "other"), 400, 10*time.Second); slices.Equal(a, c) {
		t.Fatal("different streams gave the same schedule")
	}
	// 4000 expected arrivals; a Poisson count's sd is ~63.
	if n := len(a); n < 3700 || n > 4300 {
		t.Fatalf("%d arrivals at 400/s over 10s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("offset %d = %v out of order or range", i, a[i])
		}
	}
	if poissonSchedule(newRand(1, "x"), 0, time.Second) != nil {
		t.Fatal("zero rate scheduled arrivals")
	}
}

func TestZipfKeysSkewedAndSeeded(t *testing.T) {
	draw := func(seed uint64) []int {
		z := newZipfKeys(newRand(seed, "keys"), 624, 1.1)
		out := make([]int, 20000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a := draw(3)
	if !slices.Equal(a, draw(3)) {
		t.Fatal("same seed gave different draws")
	}
	counts := map[int]int{}
	for _, k := range a {
		if k < 0 || k >= 624 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	// Uniform draws would give ~32 per key.
	if top < 1000 {
		t.Fatalf("hottest key drawn %d times of 20000: not skewed", top)
	}
	if len(counts) < 300 {
		t.Fatalf("only %d distinct keys of 624 drawn", len(counts))
	}
}

func TestGeometricLadder(t *testing.T) {
	l := geometricLadder(1057, 103084, 256)
	if l[0] != 1057 || l[len(l)-1] != 103084 || len(l) != 256 {
		t.Fatalf("ladder %d..%d with %d points", l[0], l[len(l)-1], len(l))
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not strictly increasing at %d", i)
		}
	}
}

func TestReservoirSeededAndUniform(t *testing.T) {
	sample := func(seed uint64, n, k int) []int {
		s := newReservoir[int](newRand(seed, "verify"), k)
		for i := 0; i < n; i++ {
			s.add(i)
		}
		return s.items
	}
	if got := sample(1, 5, 8); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("short stream: sample %v, want every item", got)
	}
	a := sample(1, 1000, 16)
	if !slices.Equal(a, sample(1, 1000, 16)) {
		t.Fatal("same seed gave different samples")
	}
	if slices.Equal(a, sample(2, 1000, 16)) {
		t.Fatal("different seeds gave the same sample")
	}
	if len(a) != 16 || cap(a) != 16 {
		t.Fatalf("sample of len %d cap %d, want 16", len(a), cap(a))
	}
	// Each of 100 items lands in a 10-item sample with probability 0.1:
	// over 2000 seeds the first and the last item are both near 200.
	var first, last int
	for seed := uint64(0); seed < 2000; seed++ {
		got := sample(seed, 100, 10)
		if slices.Contains(got, 0) {
			first++
		}
		if slices.Contains(got, 99) {
			last++
		}
	}
	if first < 140 || first > 260 || last < 140 || last > 260 {
		t.Fatalf("first item kept %d times, last %d, of 2000: want about 200 each", first, last)
	}
}

// specJSON builds a declaration with e end-to-end and p per-layer metrics.
func specJSON(e, p int) string {
	var b strings.Builder
	b.WriteString(`{"command":["bash","benchmark/run.sh"],"paths":["benchmark"],"run_seconds":25,`)
	b.WriteString(`"workloads":[{"name":"a","why":"x"},{"name":"b","why":"y"}],"end_to_end":[`)
	b.WriteString(`{"name":"setup_s","unit":"s","better":"lower","bound":0.25}`)
	for i := 1; i < e; i++ {
		fmt.Fprintf(&b, `,{"name":"e%d","unit":"ms","better":"lower","bound":0.1}`, i)
	}
	b.WriteString(`],"per_layer":[`)
	for i := 0; i < p; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"name":"layer.m%d","unit":"count","better":"higher"}`, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

func TestBenchSpecValidation(t *testing.T) {
	if _, err := parseBenchSpec([]byte(specJSON(16, 128))); err != nil {
		t.Fatalf("declaration at the limits rejected: %v", err)
	}
	bad := map[string]string{
		"17 end-to-end":       specJSON(17, 1),
		"129 per-layer":       specJSON(1, 129),
		"no per-layer":        specJSON(1, 0),
		"bound above 0.25":    strings.Replace(specJSON(2, 1), `"bound":0.1`, `"bound":0.3`, 1),
		"per-layer bound":     strings.Replace(specJSON(1, 1), `"better":"higher"}`, `"better":"higher","bound":0.1}`, 1),
		"no setup_s":          strings.Replace(specJSON(2, 1), `"setup_s"`, `"setup"`, 1),
		"bad name":            strings.Replace(specJSON(2, 1), `"e1"`, `"e 1"`, 1),
		"leading dot":         strings.Replace(specJSON(2, 1), `"e1"`, `".e1"`, 1),
		"duplicate name":      strings.Replace(specJSON(2, 1), `"layer.m0"`, `"e1"`, 1),
		"unknown key":         strings.Replace(specJSON(1, 1), `"paths"`, `"path"`, 1),
		"bad better":          strings.Replace(specJSON(1, 1), `"better":"higher"`, `"better":"up"`, 1),
		"long unit":           strings.Replace(specJSON(1, 1), `"unit":"count"`, `"unit":"countcountcountcount"`, 1),
		"one workload":        strings.Replace(specJSON(1, 1), `,{"name":"b","why":"y"}`, ``, 1),
		"run_seconds over 60": strings.Replace(specJSON(1, 1), `"run_seconds":25`, `"run_seconds":61`, 1),
	}
	for name, raw := range bad {
		if _, err := parseBenchSpec([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, ok := range []string{"a", "0x", "server.miss_p50_ms.eval", "A-b_c.9", strings.Repeat("x", 64)} {
		if err := validateName(ok); err != nil {
			t.Errorf("validateName(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_a", "-a", "a b", "a/b", strings.Repeat("x", 65)} {
		if validateName(bad) == nil {
			t.Errorf("validateName(%q) accepted", bad)
		}
	}
}

func TestRepositoryDeclarationIsValid(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parseBenchSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloadFns {
		if _, ok := spec.workload(name); !ok {
			t.Errorf("workload %q is not declared", name)
		}
	}
	for _, names := range [][]string{exploreTraffic, serveTraffic} {
		for _, n := range names {
			if m, ok := spec.metric(n); !ok || m.Bound != nil {
				t.Errorf("traffic metric %q is not a declared per-layer metric", n)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children [10,40) and [30,60) (overlapping) and a
	// grandchild [15,20) under the first child.
	spans := []span{
		{SpanID: 1, Layer: "harness", StartNS: 0, EndNS: 100},
		{SpanID: 2, Parent: 1, Layer: "experiments", StartNS: 10, EndNS: 40},
		{SpanID: 3, Parent: 1, Layer: "experiments", StartNS: 30, EndNS: 60},
		{SpanID: 4, Parent: 2, Layer: "leakage", StartNS: 15, EndNS: 20},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"harness":     {Spans: 1, SelfNS: 50},
		"experiments": {Spans: 2, SelfNS: 25 + 30},
		"leakage":     {Spans: 1, SelfNS: 5},
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("layer %s: %+v, want %+v", layer, got[layer], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.start(nil, "x", "y")
	tr.start(sp, "z", "w").end(nil)
	sp.end(map[string]any{"k": 1})
	tr.record(sp, "r", "s", time.Now(), time.Now(), nil)
}

func TestCapacityInterpolates(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	step := func(rate, p99 float64, passed bool) *phase {
		return &phase{rate: rate, p99: ms(p99), passed: passed}
	}
	cases := []struct {
		name  string
		steps []*phase
		want  float64
	}{
		{"all pass", []*phase{step(200, 10, true), step(400, 50, true)}, 400},
		{"crosses halfway", []*phase{step(200, 10, true), step(400, 50, true), step(450, 450, false)}, 425},
		{"backlog below limit", []*phase{step(200, 10, true), step(400, 200, false)}, 200},
		{"first step fails", []*phase{step(200, 500, false)}, 100},
	}
	for _, c := range cases {
		if got := capacity(c.steps); got != c.want {
			t.Errorf("%s: capacity %v, want %v", c.name, got, c.want)
		}
	}
}

func TestParseSnapshotText(t *testing.T) {
	raw := []byte(`pool:
  tasks_completed              780
  queue_wait_ns                count=780 sum=1607414566 min=228 max=700004711 mean=2060787.9
    [128, 255]: 3
suite:
  sim_ms/gzip                  700
  sim_ns                       count=6 sum=3597020731 min=336414156 max=934337764 mean=599503455.2
`)
	got := parseSnapshotText(raw)
	for k, want := range map[string]float64{
		"pool/tasks_completed":     780,
		"pool/queue_wait_ns.sum":   1607414566,
		"pool/queue_wait_ns.count": 780,
		"suite/sim_ms/gzip":        700,
		"suite/sim_ns.sum":         3597020731,
	} {
		if got[k] != want {
			t.Errorf("%s = %v, want %v", k, got[k], want)
		}
	}
	if _, ok := got["pool/queue_wait_ns.min"]; ok {
		t.Error("histogram min parsed as a value")
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		m            metricDef
		base, change []float64
		want         string
	}{
		{lower, steady, []float64{101, 100, 102, 99, 100}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 122}, "REGRESSION"},
		{higher, steady, []float64{80, 81, 79, 80, 82}, "REGRESSION"},
		{lower, steady, []float64{80, 81, 79, 80, 82}, "better"},
		{lower, []float64{50, 100, 150, 200, 100}, []float64{90, 120, 101, 130, 150}, "unresolved"},
		{lower, steady, nil, "missing"},
	} {
		if got := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.base, c.change, got, c.want)
		}
	}
}

func TestResultLineCorrectOnlyWithoutFailures(t *testing.T) {
	defs := []metricDef{{Name: "setup_s", Unit: "s", Better: "lower"}}
	decode := func(r *result) (correct bool, failed int) {
		t.Helper()
		raw, err := resultLine(r, defs, map[string]float64{"setup_s": 1.5})
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if m := got.Metrics["setup_s"]; m.Value != 1.5 || m.Unit != "s" {
			t.Fatalf("metric setup_s = %+v", m)
		}
		return got.Correct, got.Failed
	}

	ok := newResult()
	ok.attempted = 10
	if correct, failed := decode(ok); !correct || failed != 0 {
		t.Fatalf("clean run: correct=%v failed=%d", correct, failed)
	}
	// An operation that failed without a wrong output (a rep exiting
	// non-zero, a non-200 response) still makes the run incorrect.
	failedOp := newResult()
	failedOp.attempted, failedOp.failed = 10, 1
	if correct, failed := decode(failedOp); correct || failed != 1 {
		t.Fatalf("one failed op: correct=%v failed=%d", correct, failed)
	}
	wrong := newResult()
	wrong.attempted = 10
	wrong.markWrong("output differs")
	if correct, failed := decode(wrong); correct || failed != 1 {
		t.Fatalf("one wrong output: correct=%v failed=%d", correct, failed)
	}
}

// metric returns the declaration of the named metric, end-to-end or
// per-layer.
func (b *benchSpec) metric(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{b.EndToEnd, b.PerLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
