package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

const testSpecJSON = `{"version":1,"name":"test-spec","seed":3,"phases":[
	{"body_instrs":200,"iterations":40,"mix":[
		{"kernel":"loop","bytes":16384},{"kernel":"hot"}]}]}`

func writeSpec(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGenerateAndSummarize(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.trc")
	if err := runGenerate(context.Background(), "gzip", "", "D", out, 0.02); err != nil {
		t.Fatal(err)
	}
	if err := runSummarize(io.Discard, out); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateMatchesSimulation checks that what -o writes is the
// simulation's own event stream for the traced cache: every row of that
// cache that cpu.RunStreamContext delivers, in order, under the cache's
// frame count and the horizon max(run cycles, last event + 1). The D side
// ends on an access past the run's final cycle, while the L2 side's last
// access lies long before it, so both arms of the horizon rule are
// exercised.
func TestGenerateMatchesSimulation(t *testing.T) {
	sides := []struct {
		side   string
		id     trace.CacheID
		frames uint32
	}{{"D", trace.L1D, 1024}, {"I", trace.L1I, 1024}, {"L2", trace.L2, 32768}}
	for _, tc := range sides {
		side, id := tc.side, tc.id
		out := filepath.Join(t.TempDir(), side+".trc")
		if err := runGenerate(context.Background(), "gzip", "", side, out, 0.01); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := trace.ReadTagged(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}

		hier, err := cache.NewHierarchy(cache.AlphaLike())
		if err != nil {
			t.Fatal(err)
		}
		var want []trace.Event
		res, err := cpu.RunStreamContext(context.Background(), workload.MustNew("gzip", 0.01), hier, cpu.DefaultConfig(),
			func(b *stream.Batch) error {
				for i, c := range b.Caches {
					if c == id {
						want = append(want, b.Event(i))
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: simulation delivered no events", side)
		}

		s := tg.Stream
		if tg.Content != trace.CacheEvents {
			t.Errorf("%s: content = %v, want %v", side, tg.Content, trace.CacheEvents)
		}
		if s.NumFrames != tc.frames {
			t.Errorf("%s: NumFrames = %d, want %d", side, s.NumFrames, tc.frames)
		}
		if wantTotal := max(res.Cycles, want[len(want)-1].Cycle+1); s.TotalCycles != wantTotal {
			t.Errorf("%s: TotalCycles = %d, want %d (run %d cycles)", side, s.TotalCycles, wantTotal, res.Cycles)
		}
		if len(s.Events) != len(want) {
			t.Fatalf("%s: file holds %d events, simulation delivered %d", side, len(s.Events), len(want))
		}
		for i := range want {
			if s.Events[i] != want[i] {
				t.Fatalf("%s: event %d: file %+v, simulation %+v", side, i, s.Events[i], want[i])
			}
		}
	}
}

// TestSummarizeContent checks that -summarize reports each content kind in
// its own terms: a cache-event trace by events, cycles, frames and misses;
// an instruction recording by instructions per kind, with no timing lines.
func TestSummarizeContent(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "d.trc")
	if err := runGenerate(context.Background(), "gzip", "", "D", events, 0.02); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := runSummarize(&sb, events); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"  content: cache-events\n", "  events:  ", "  cycles:  ", "  frames:  ", "  misses:  "} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("cache-event summary lacks %q:\n%s", line, sb.String())
		}
	}

	rec := filepath.Join(dir, "rec.trc")
	if err := runRecord("gzip", "", rec, 0.02); err != nil {
		t.Fatal(err)
	}
	var n, ops, loads, stores int
	workload.MustNew("gzip", 0.02).Emit(func(in workload.Instr) bool {
		n++
		switch in.Kind {
		case workload.Op:
			ops++
		case workload.Load:
			loads++
		case workload.Store:
			stores++
		}
		return true
	})
	sb.Reset()
	if err := runSummarize(&sb, rec); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s:\n  content: instr-recording\n  instrs:  %d (%d ops, %d loads, %d stores)\n",
		rec, n, ops, loads, stores)
	if sb.String() != want {
		t.Errorf("recording summary:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestGenerateICacheAndL2(t *testing.T) {
	dir := t.TempDir()
	for _, side := range []string{"I", "L2"} {
		out := filepath.Join(dir, side+".trc")
		if err := runGenerate(context.Background(), "ammp", "", side, out, 0.02); err != nil {
			t.Fatalf("%s: %v", side, err)
		}
	}
}

func TestGenerateFromSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpec(t, dir, "w.json", testSpecJSON)
	out := filepath.Join(dir, "spec.trc")
	if err := runGenerate(context.Background(), "", specPath, "D", out, 1); err != nil {
		t.Fatal(err)
	}
	if err := runSummarize(io.Discard, out); err != nil {
		t.Fatal(err)
	}
}

func TestRecordAndReplay(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpec(t, dir, "w.json", testSpecJSON)
	rec := filepath.Join(dir, "w.trc")
	if err := runRecord("", specPath, rec, 1); err != nil {
		t.Fatal(err)
	}
	// The recording replays through -spec: generating from the spec and
	// from its recording must produce identical cache event traces.
	fromSpec := filepath.Join(dir, "from_spec.trc")
	fromRec := filepath.Join(dir, "from_rec.trc")
	if err := runGenerate(context.Background(), "", specPath, "D", fromSpec, 1); err != nil {
		t.Fatal(err)
	}
	if err := runGenerate(context.Background(), "", rec, "D", fromRec, 1); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(fromSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fromRec)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("replayed recording diverged from the spec's own trace")
	}
	// Recording a built-in benchmark works too.
	if err := runRecord("gzip", "", filepath.Join(dir, "g.trc"), 0.02); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAndList(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, "a.json", testSpecJSON)
	var sb strings.Builder
	if err := runCheck(&sb, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "test-spec") || !strings.Contains(sb.String(), "1 scenarios valid") {
		t.Errorf("check output: %q", sb.String())
	}
	sb.Reset()
	if err := runCheck(&sb, filepath.Join(dir, "a.json")); err != nil {
		t.Fatal(err)
	}
	writeSpec(t, dir, "bad.json", `{"version":1,"name":"bad","phases":[]}`)
	if err := runCheck(&sb, dir); err == nil {
		t.Error("invalid spec passed check")
	}
	if err := runCheck(&sb, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file passed check")
	}

	sb.Reset()
	if err := runList(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names() {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("list output missing %q", name)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	ctx := context.Background()
	if err := runGenerate(ctx, "gzip", "", "D", "", 0.02); !errors.Is(err, ErrMissingOutput) {
		t.Errorf("missing output: %v", err)
	}
	if err := runGenerate(ctx, "gzip", "", "Q", "x.trc", 0.02); !errors.Is(err, ErrUnknownCache) {
		t.Errorf("unknown cache: %v", err)
	}
	if err := runGenerate(ctx, "nope", "", "D", "x.trc", 0.02); !errors.Is(err, workload.ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark: %v", err)
	}
	if err := runGenerate(ctx, "gzip", "also.json", "D", "x.trc", 0.02); !errors.Is(err, ErrConflictingSource) {
		t.Errorf("bench+spec: %v", err)
	}
	// A cancelled run fails and leaves no partial trace behind.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	out := filepath.Join(t.TempDir(), "cancelled.trc")
	if err := runGenerate(cancelled, "gzip", "", "D", out, 0.02); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("cancelled run left %s behind (stat: %v)", out, err)
	}
	if err := runRecord("gzip", "", "", 0.02); !errors.Is(err, ErrMissingOutput) {
		t.Errorf("record missing output: %v", err)
	}
	if err := runSummarize(io.Discard, filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCacheID(t *testing.T) {
	for side, want := range map[string]trace.CacheID{"I": trace.L1I, "D": trace.L1D, "L2": trace.L2} {
		got, err := cacheID(side)
		if err != nil || got != want {
			t.Errorf("cacheID(%q) = %v, %v", side, got, err)
		}
	}
}
