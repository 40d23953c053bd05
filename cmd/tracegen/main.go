// Command tracegen generates a synthetic benchmark's timed cache access
// trace and streams it into an LKBTRC02 trace file, records a
// workload's instruction stream for later replay, summarizes an existing
// trace file, or validates workload spec files.
//
// Usage:
//
//	tracegen -bench ammp -cache D -o ammp_d.trc [-scale 0.2]
//	tracegen -spec workload.json -cache D -o custom_d.trc
//	tracegen -spec workload.json -record custom.trc
//	tracegen -spec recording.trc -cache I -o replayed_i.trc
//	tracegen -summarize ammp_d.trc
//	tracegen -check examples/specs
//	tracegen -list
//
// -bench selects a built-in benchmark; -spec selects a declarative
// workload spec (.json, compiled) or a recorded instruction trace (.trc,
// replayed) instead. -record captures the workload's instruction stream
// as a recording that replays bit-identically; -o runs the cache
// simulation and traces one cache's event stream. -check validates one
// spec file or every spec in a directory and prints each scenario's
// digest. The standard observability flags (-metrics, -cpuprofile,
// -memprofile, -metrics-addr) are also accepted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
	"leakbound/internal/workload/spec"
)

// Sentinel errors for argument validation; match with errors.Is.
var (
	// ErrUnknownCache reports a -cache selector outside {I, D, L2}.
	ErrUnknownCache = errors.New("tracegen: unknown cache")

	// ErrMissingOutput reports a generate run without -o or -record.
	ErrMissingOutput = errors.New("tracegen: missing output file")

	// ErrConflictingSource reports -bench and -spec given together.
	ErrConflictingSource = errors.New("tracegen: -bench and -spec are mutually exclusive")
)

func main() {
	bench := flag.String("bench", "", "built-in benchmark to trace (default gzip; see -list)")
	specPath := flag.String("spec", "", "workload spec (.json) or recorded trace (.trc) to use instead of -bench")
	side := flag.String("cache", "D", "which cache to trace: I, D, or L2")
	out := flag.String("o", "", "output trace file for the cache event stream")
	record := flag.String("record", "", "output file for an instruction recording (replayable via -spec)")
	scale := flag.Float64("scale", 0.2, "workload scale")
	summarize := flag.String("summarize", "", "summarize an existing trace file instead of generating")
	check := flag.String("check", "", "validate one spec file or every spec in a directory, then exit")
	list := flag.Bool("list", false, "list the built-in benchmarks and exit")
	obs := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	stop, err := obs.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	switch {
	case *list:
		err = runList(os.Stdout)
	case *check != "":
		err = runCheck(os.Stdout, *check)
	case *summarize != "":
		err = runSummarize(os.Stdout, *summarize)
	case *record != "":
		err = runRecord(*bench, *specPath, *record, *scale)
	default:
		err = runGenerate(ctx, *bench, *specPath, *side, *out, *scale)
	}
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func cacheID(side string) (trace.CacheID, error) {
	switch side {
	case "I":
		return trace.L1I, nil
	case "D":
		return trace.L1D, nil
	case "L2":
		return trace.L2, nil
	default:
		return 0, fmt.Errorf("%w %q (want I, D, or L2)", ErrUnknownCache, side)
	}
}

// resolveWorkload builds the workload a run traces: a spec file or
// recording when -spec is given, a built-in benchmark otherwise.
func resolveWorkload(bench, specPath string, scale float64) (workload.Workload, string, error) {
	if specPath != "" {
		if bench != "" {
			return nil, "", ErrConflictingSource
		}
		src, err := spec.LoadFile(specPath)
		if err != nil {
			return nil, "", err
		}
		w, err := src.Workload(scale)
		if err != nil {
			return nil, "", err
		}
		return w, src.ScenarioName(), nil
	}
	if bench == "" {
		bench = "gzip"
	}
	w, err := workload.New(bench, scale)
	if err != nil {
		return nil, "", err
	}
	return w, bench, nil
}

func runGenerate(ctx context.Context, bench, specPath, side, out string, scale float64) (err error) {
	if out == "" {
		return fmt.Errorf("%w (-o)", ErrMissingOutput)
	}
	id, err := cacheID(side)
	if err != nil {
		return err
	}
	w, name, err := resolveWorkload(bench, specPath, scale)
	if err != nil {
		return err
	}
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer func() {
		f.Close()
		if err != nil {
			os.Remove(out) // the trace streams out as the run goes: drop a partial one
		}
	}()
	tw, err := trace.NewWriter(f, trace.CacheEvents, uint32(hier.CacheByID(id).Config().NumLines()))
	if err != nil {
		return err
	}
	var events int
	res, err := cpu.RunStreamContext(ctx, w, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		for i, c := range b.Caches {
			if c == id {
				if err := tw.Append(b.Event(i)); err != nil {
					return err
				}
				events++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Close extends the horizon to the last event's cycle + 1 when that
	// lies past the run's final cycle.
	tw.SetTotalCycles(res.Cycles)
	if err := tw.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%s: %d %s events over %d cycles -> %s\n",
		name, events, id, res.Cycles, out)
	return nil
}

// runRecord captures the workload's instruction stream as a replayable
// recording: feeding the recording back through -spec reproduces the
// exact same simulation inputs, independent of -scale.
func runRecord(bench, specPath, out string, scale float64) error {
	if out == "" {
		return fmt.Errorf("%w (-record)", ErrMissingOutput)
	}
	w, name, err := resolveWorkload(bench, specPath, scale)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := spec.Record(f, w)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%s: recorded %d instructions -> %s\n", name, n, out)
	return nil
}

// runCheck validates one spec file, or every spec and recording in a
// directory, printing each scenario's name and digest. Any invalid file
// fails the whole check (backs `make check-specs`).
func runCheck(w io.Writer, path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	var srcs []spec.Source
	if info.IsDir() {
		if srcs, err = spec.LoadDir(path); err != nil {
			return err
		}
	} else {
		src, err := spec.LoadFile(path)
		if err != nil {
			return err
		}
		srcs = []spec.Source{src}
	}
	for _, src := range srcs {
		digest := src.ScenarioDigest()
		if len(digest) > 12 {
			digest = digest[:12]
		}
		fmt.Fprintf(w, "ok\t%s\t%s\n", src.ScenarioName(), digest)
	}
	if info.IsDir() {
		fmt.Fprintf(w, "%s: %d scenarios valid\n", filepath.Clean(path), len(srcs))
	}
	return nil
}

// runList prints the built-in benchmark inventory.
func runList(w io.Writer) error {
	names := workload.Names()
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, name := range sorted {
		wl, err := workload.New(name, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%s\n", name, wl.Description())
	}
	return nil
}

// runSummarize prints a trace file's content kind and counts. A cache-event
// trace reports its events by access kind, horizon, frames and misses; an
// instruction recording has no timing or cache, so it reports only its
// instructions by kind.
func runSummarize(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tg, err := trace.ReadTagged(f)
	if err != nil {
		return err
	}
	s := tg.Stream
	var misses, loads, stores, fetches uint64
	frames := map[uint32]struct{}{}
	for _, e := range s.Events {
		if e.Miss {
			misses++
		}
		switch e.Kind {
		case trace.Load:
			loads++
		case trace.Store:
			stores++
		case trace.Fetch:
			fetches++ // an op, in an instruction recording
		}
		frames[e.Frame] = struct{}{}
	}
	fmt.Fprintf(w, "%s:\n", path)
	fmt.Fprintf(w, "  content: %s\n", tg.Content)
	if tg.Content == trace.InstrRecording {
		fmt.Fprintf(w, "  instrs:  %d (%d ops, %d loads, %d stores)\n", s.Len(), fetches, loads, stores)
		return nil
	}
	fmt.Fprintf(w, "  events:  %d (%d fetches, %d loads, %d stores)\n", s.Len(), fetches, loads, stores)
	fmt.Fprintf(w, "  cycles:  %d\n", s.TotalCycles)
	fmt.Fprintf(w, "  frames:  %d touched of %d\n", len(frames), s.NumFrames)
	if s.Len() > 0 {
		fmt.Fprintf(w, "  misses:  %d (%.2f%%)\n", misses, 100*float64(misses)/float64(s.Len()))
	}
	return nil
}
