package main

// -compare: judge a change's runs against a base's, one row per (workload,
// metric), by the bounds BENCHMARK.json fixes. A metric whose run-to-run
// spread on either side exceeds its bound is "unresolved" unless every
// change run reads better than every base run. Comparing an untraced file
// with a traced one of the same code prints the tracing overhead.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// readRecords loads an -out file.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for line := 1; sc.Scan(); line++ {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// verdict judges one metric: the change's median against the base's.
// "better" needs every change run to beat every base run, and the medians
// to differ by more than the bound unless the spread hides the bound.
func verdict(m metricDef, base, change []float64) string {
	if len(base) == 0 || len(change) == 0 {
		return "missing"
	}
	if m.Bound == nil {
		return "-"
	}
	mb, mc := median(base), median(change)
	worse := (mc - mb) / math.Abs(mb)
	if !m.lowerIsBetter() {
		worse = -worse
	}
	allBetter := true
	for _, b := range base {
		for _, c := range change {
			if (m.lowerIsBetter() && c >= b) || (!m.lowerIsBetter() && c <= b) {
				allBetter = false
			}
		}
	}
	noisy := spread(base) > *m.Bound || spread(change) > *m.Bound
	switch {
	case allBetter && (noisy || worse < -*m.Bound):
		return "better"
	case noisy:
		return "unresolved"
	case worse > *m.Bound:
		return "REGRESSION"
	default:
		return "ok"
	}
}

// runCompare prints the comparison and fails when any metric regressed.
func runCompare(spec *benchSpec, basePath, changePath string, w io.Writer) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tbase spread\tchange median\tchange spread\tdelta\tverdict")
	regressions := 0
	for _, wd := range spec.Workloads {
		a, b := byWorkload(base, wd.Name), byWorkload(change, wd.Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		if traced(a) != traced(b) {
			fmt.Fprintf(tw, "%s\t(one side traced: end-to-end deltas are the tracing overhead)\n", wd.Name)
		}
		row := func(m metricDef, va, vb []float64) {
			v := verdict(m, va, vb)
			if v == "REGRESSION" {
				regressions++
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.3f\t%.6g\t%.3f\t%+.2f%%\t%s\n", wd.Name, m.Name, m.Unit,
				ma, spread(va), mb, spread(vb), 100*ratio(mb-ma, math.Abs(ma)), v)
		}
		for _, m := range spec.EndToEnd {
			row(m, values(a, m.Name, false), values(b, m.Name, false))
		}
		fa, fb := failShare(a), failShare(b)
		v := "ok"
		if fb > fa {
			v, regressions = "REGRESSION", regressions+1
		}
		fmt.Fprintf(tw, "%s\tfail_share\tfraction\t%.6g\t\t%.6g\t\t\t%s\n", wd.Name, fa, fb, v)
		if traced(a) && traced(b) {
			for _, m := range spec.PerLayer {
				row(m, values(a, m.Name, true), values(b, m.Name, true))
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		return errors.New("regressions found")
	}
	return nil
}

func byWorkload(recs []runRecord, name string) []runRecord {
	var out []runRecord
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// traced reports whether every record carries per-layer metrics.
func traced(recs []runRecord) bool {
	for _, r := range recs {
		if !r.Trace {
			return false
		}
	}
	return true
}

func values(recs []runRecord, name string, perLayer bool) []float64 {
	var out []float64
	for _, r := range recs {
		m := r.EndToEnd
		if perLayer {
			m = r.PerLayer
		}
		if v, ok := m[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// failShare is failed operations over attempted ones, across the runs.
func failShare(recs []runRecord) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
