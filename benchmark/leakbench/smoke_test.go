package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks the result lines, the trace and the -compare mode: it keeps the
// harness compiling and running.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the binaries")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain to build the binaries with")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin, work := t.TempDir(), t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin+string(filepath.Separator), "./cmd/experiments", "./cmd/leakaged")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	spec, err := loadBenchSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	records := filepath.Join(work, "runs.jsonl")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	for _, trace := range []string{"0", "1"} {
		for _, w := range spec.Workloads {
			var out bytes.Buffer
			// At toy scale the paper check compares reps with each other,
			// not with RESULTS.txt, which is the scale-1 output.
			opt := options{seed: 5, seconds: 1, trace: trace == "1", scale: 0.01, root: root, bin: bin, work: work}
			if err := runOne(ctx, spec, opt, w.Name, workloadFns[w.Name], &out, records); err != nil {
				t.Fatalf("%s trace %s: %v\n%s", w.Name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %s: last line %q: %v", w.Name, trace, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: correct=%v failed=%d attempted=%d\n%s", w.Name, trace,
					res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace %s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Fatalf("%s trace %s: metric %s = %+v, declared unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if trace == "1" {
				checkTrace(t, filepath.Join(work, "trace-"+w.Name+"-seed5.json"), w.Name)
			}
		}
	}

	var cmp bytes.Buffer
	if err := run(ctx, []string{"-root", root, "-compare", records, records}, &cmp); err != nil {
		t.Fatalf("-compare of a file with itself: %v\n%s", err, cmp.String())
	}
	for _, w := range spec.Workloads {
		if !strings.Contains(cmp.String(), w.Name+"  ") {
			t.Errorf("-compare printed no row for %s:\n%s", w.Name, cmp.String())
		}
	}
}

// checkTrace requires the trace to hold spans for every layer the
// workload crosses and a self time for each.
func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Layers map[string]layerTime `json:"self_ns_by_layer"`
		Spans  []span               `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	layers := []string{"harness", "workload", "sim.cpu", "sim.cache", "interval", "prefetch", "experiments", "leakage"}
	switch workload {
	case "paper":
		layers = append(layers, "experiments.process")
	case "serve":
		layers = append(layers, "server")
	}
	for _, l := range layers {
		if tr.Layers[l].Spans == 0 {
			t.Errorf("%s trace: no spans in layer %s", workload, l)
		}
	}
	for _, s := range tr.Spans {
		if s.EndNS < s.StartNS || s.SpanID == 0 || s.TraceID == 0 {
			t.Fatalf("%s trace: malformed span %+v", workload, s)
		}
	}
}
