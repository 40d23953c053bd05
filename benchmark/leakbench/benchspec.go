package main

// BENCHMARK.json is the single declaration of what this harness measures:
// its workloads, the end-to-end metrics every untraced run reports (with
// the bound by which each may worsen before a change counts as a
// regression), and the per-layer metrics every traced run reports. The
// harness refuses to start on a file outside the limits below, and refuses
// to print a result whose metric set differs from the declared one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// Limits on the declaration.
const (
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxWorkloads = 8
	maxBound     = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricDef declares one metric.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// lowerIsBetter reports the metric's direction.
func (m metricDef) lowerIsBetter() bool { return m.Better == "lower" }

// workloadDef declares one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is the parsed BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// loadBenchSpec reads and validates a BENCHMARK.json.
func loadBenchSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark declaration: %w", err)
	}
	return parseBenchSpec(raw)
}

// parseBenchSpec strictly decodes and validates a declaration.
func parseBenchSpec(raw []byte) (*benchSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchSpec
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := b.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// validate checks every limit the declaration must meet.
func (b *benchSpec) validate() error {
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2 to %d", n, maxWorkloads)
	}
	if n := len(b.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end_to_end metrics, want 1 to %d", n, maxEndToEnd)
	}
	if n := len(b.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per_layer metrics, want 1 to %d", n, maxPerLayer)
	}
	seen := map[string]bool{}
	unique := func(kind, name string) error {
		if err := validateName(name); err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range b.Workloads {
		if err := unique("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\r\n") {
			return fmt.Errorf("workload %q: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		if err := unique("end_to_end", m.Name); err != nil {
			return err
		}
		if err := m.validate(true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.lowerIsBetter()
		}
	}
	if !hasSetup {
		return fmt.Errorf(`end_to_end must declare setup_s with unit "s", better "lower"`)
	}
	for _, m := range b.PerLayer {
		if err := unique("per_layer", m.Name); err != nil {
			return err
		}
		if err := m.validate(false); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one metric declaration; end-to-end metrics carry a
// bound, per-layer metrics must not.
func (m metricDef) validate(endToEnd bool) error {
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %q: unit %q must be 1 to 16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %q: better must be lower or higher, not %q", m.Name, m.Better)
	}
	switch {
	case endToEnd && m.Bound == nil:
		return fmt.Errorf("metric %q: end-to-end metrics need a bound", m.Name)
	case endToEnd && (*m.Bound <= 0 || *m.Bound > maxBound):
		return fmt.Errorf("metric %q: bound %g outside (0, %g]", m.Name, *m.Bound, maxBound)
	case !endToEnd && m.Bound != nil:
		return fmt.Errorf("metric %q: per-layer metrics take no bound", m.Name)
	}
	return nil
}

// validateName checks a workload or metric name: a letter or digit, then
// at most 63 of [A-Za-z0-9_.-].
func validateName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("name %q must match %s", name, nameRE)
	}
	return nil
}

// workload returns the declaration of the named workload.
func (b *benchSpec) workload(name string) (workloadDef, bool) {
	for _, w := range b.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
