package main

// The paper workload: one client regenerating the paper's results with the
// experiments binary, rep after rep, each from an empty disk cache — the
// researcher's path. It is dominated by the simulator layers (workload,
// sim, interval, prefetch) and writes the disk cache.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"leakbound/internal/power"
)

const (
	paperScale  = 1.0
	canaryScale = 0.05 // set-up's smoke run of the binary
	// paperRepTicks host-pace probes follow each rep: a rep lasts seconds,
	// and the host's speed changes on that scale.
	paperRepTicks = 4
)

// paperRep is one timed experiments run.
type paperRep struct {
	wall, cpu time.Duration
	maxRSSMB  float64
	stdout    []byte
	telemetry map[string]float64 // from -metrics, traced runs only
}

// runExperiments runs the experiments binary once with a fresh, empty
// cache directory and collects its output and resource use.
func runExperiments(e *env, dir string, args ...string) (paperRep, error) {
	if err := os.RemoveAll(dir); err != nil {
		return paperRep{}, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.opt.bin, "experiments"), append(args, "-cache", dir)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Run()
	rep := paperRep{wall: time.Since(t0), stdout: stdout.Bytes()}
	if err != nil {
		return rep, fmt.Errorf("experiments %s: %w: %s", strings.Join(args, " "), err, lastLine(stderr.Bytes()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.cpu = rusageCPU(ru)
		rep.maxRSSMB = float64(ru.Maxrss) / 1024 // kB on Linux
	}
	rep.telemetry = parseSnapshotText(stderr.Bytes())
	return rep, nil
}

func runPaper(e *env) (*result, error) {
	r := newResult()
	scale := paperScale * e.opt.scale
	scaleArg := strconv.FormatFloat(scale, 'g', -1, 64)
	dir := filepath.Join(e.opt.work, "paper-cache")

	// The reference output: RESULTS.txt is the scale-1 output; at any
	// other scale every rep must reproduce the first one byte for byte.
	var want []byte
	if scale == 1 {
		var err error
		if want, err = os.ReadFile(filepath.Join(e.opt.root, "RESULTS.txt")); err != nil {
			return nil, err
		}
	}

	// Set-up: a small smoke run proves the binary starts and simulates
	// before any rep is timed.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		sp := e.tr.start(nil, "paper.setup", "harness")
		t0 := time.Now()
		rep, err := runExperiments(e, dir, "-scale", strconv.FormatFloat(canaryScale*e.opt.scale, 'g', -1, 64), "-only", "profile")
		if err != nil {
			return nil, err
		}
		if len(rep.stdout) == 0 {
			return nil, fmt.Errorf("experiments printed nothing in set-up")
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp.end(nil)
	}
	r.e2e["setup_s"] = median(setups)
	r.samples["setup_s"] = len(setups)

	args := []string{"-scale", scaleArg}
	if e.opt.trace {
		args = append(args, "-metrics")
	}
	var reps []paperRep
	var probeWall time.Duration // host-pace probes between reps
	start := time.Now()
	for r.attempted == 0 || time.Since(start) < e.opt.window() {
		root := e.tr.start(nil, "paper.rep", "harness")
		sp := e.tr.start(root, "experiments", "experiments.process")
		rep, err := runExperiments(e, dir, args...)
		sp.end(map[string]any{"cpu_ns": rep.cpu.Nanoseconds(), "max_rss_mb": rep.maxRSSMB})
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			e.logf("rep failed: %v", err)
		case want == nil:
			want = rep.stdout
		case !bytes.Equal(rep.stdout, want):
			r.markWrong("rep %d output differs from the reference (%d vs %d bytes)", r.attempted, len(rep.stdout), len(want))
		}
		root.end(nil)
		t := time.Now()
		for i := 0; i < paperRepTicks; i++ {
			e.pace.tick()
		}
		probeWall += time.Since(t)
		if err == nil {
			reps = append(reps, rep)
		}
		if e.ctx.Err() != nil {
			return nil, e.ctx.Err()
		}
	}
	elapsed := time.Since(start) - probeWall
	if len(reps) == 0 {
		return nil, fmt.Errorf("every rep failed")
	}

	var wall, cpu, rss, simMS, queueMS []float64
	for _, rep := range reps {
		wall = append(wall, float64(rep.wall)/float64(time.Millisecond))
		cpu = append(cpu, float64(rep.cpu)/float64(time.Millisecond))
		rss = append(rss, rep.maxRSSMB)
		simMS = append(simMS, rep.telemetry["suite/sim_ns.sum"]/1e6)
		queueMS = append(queueMS, rep.telemetry["pool/queue_wait_ns.sum"]/1e6)
	}
	r.e2e["latency_p50_ms"] = median(wall)
	r.samples["latency_p50_ms"] = len(wall)
	r.e2e["ops_per_s"] = float64(len(reps)) / elapsed.Seconds()
	r.e2e["cpu_ms_per_op"] = median(cpu)
	r.samples["cpu_ms_per_op"] = len(cpu)
	r.e2e["peak_rss_mb"] = median(rss)
	r.samples["peak_rss_mb"] = len(rss)
	if !e.opt.trace {
		return r, nil
	}

	r.layer["experiments.sim_ms_total"] = median(simMS)
	r.layer["experiments.pool_queue_wait_ms"] = median(queueMS)
	r.notExercised(exploreTraffic...)
	r.notExercised(serveTraffic...)
	ref, err := traceLayers(e, r, scale)
	if err != nil {
		return nil, err
	}
	// The paper's dense sweeps: opt-sleep and opt-hybrid over Figure 7's
	// 256-point theta span, both sides, at the paper's node.
	var sweeps []sweepQuery
	for _, scheme := range []string{"opt-sleep", "opt-hybrid"} {
		for _, iCache := range []bool{true, false} {
			sweeps = append(sweeps, sweepQuery{scheme, iCache, power.Default(), geometricLadder(1057, sweepTop, sweepPoints)})
		}
	}
	k, err := kernelProbe(e.ctx, e.tr, ref, sweeps)
	if err != nil {
		return nil, err
	}
	k.report(r)
	return r, nil
}

// parseSnapshotText reads the counters, gauges and histogram sums of a
// telemetry text snapshot (the -metrics output) into "scope/name" keys;
// histograms contribute "scope/name.sum" and "scope/name.count".
func parseSnapshotText(raw []byte) map[string]float64 {
	out := map[string]float64{}
	scope := ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "    "): // histogram bucket
		case strings.HasPrefix(line, "  "):
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[scope+"/"+f[0]] = v
				continue
			}
			for _, kv := range f[1:] {
				k, v, ok := strings.Cut(kv, "=")
				if x, err := strconv.ParseFloat(v, 64); ok && err == nil && (k == "sum" || k == "count") {
					out[scope+"/"+f[0]+"."+k] = x
				}
			}
		case strings.HasSuffix(line, ":"):
			scope = strings.TrimSuffix(line, ":")
		}
	}
	return out
}

// lastLine returns the last non-empty line of b, for error messages.
func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}
