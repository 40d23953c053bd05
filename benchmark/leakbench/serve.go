package main

// The serve workload: leakaged under open-loop Poisson traffic from this
// process over at most GOMAXPROCS connections. Cached GET evaluations,
// uncached dense sweeps and Pareto frontiers, and POSTed workload specs
// that force ad-hoc simulations all share the daemon; it is the only
// workload that loads the server's result cache, request coalescing and
// admission control. Every request is timed from the moment it was due.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leakbound/internal/experiments"
	"leakbound/internal/power"
	"leakbound/internal/telemetry"
	"leakbound/internal/workload"
	"leakbound/internal/workload/spec"
)

const (
	serveScale = 0.25
	// A step of the ramp passes when its p99 stays within serveLimit, no
	// request fails, and at its end no more than serveBacklog x rate
	// requests are still outstanding.
	serveLimit   = 250 * time.Millisecond
	serveBacklog = 0.25
	refRate      = 100  // the light-load reference rate
	loadRate     = 400  // the ramp's first step
	rampStep     = 100  // the ramp's stride until a step fails
	rampFinest   = 12.5 // bisection stops at this bracket width
)

// The measured window, as shares of -seconds: a one-client unloaded pass;
// the reference rate; GOMAXPROCS clients back to back (saturation); the
// ramp, stepping up from loadRate until a step fails and then bisecting
// between the highest passing and lowest failing rate, until its share is
// spent; then the reference rate again for the rest.
const (
	shareUnloaded = 0.04
	shareRef      = 0.26
	shareSat      = 0.28
	shareRamp     = 0.36
	shareStep     = 0.12 // ~1200 requests at loadRate: enough for a p99

	// The reference and saturation phases run in chunks, with a host-pace
	// probe after every phase and chunk, so the probes sample the host
	// throughout the window.
	refChunks = 5
	satChunks = 7
)

// serveTraffic are the per-layer metrics only serve traffic moves.
var serveTraffic = []string{
	"server.hit_ratio", "server.evictions", "server.coalesced_waits", "server.hit_p50_ms",
	"server.miss_p50_ms.eval", "server.miss_p50_ms.sweep", "server.miss_p50_ms.pareto", "server.miss_p50_ms.spec",
	"server.admission_wait_est_ms", "server.rejected", "experiments.adhoc_sims",
	"serve.p50_ms_r100", "serve.p99_ms_r100", "serve.p50_ms_r400", "serve.p99_ms_r400", "serve.max_rps", "generator.late_p99_ms",
}

// serveReq is one request of the mix.
type serveReq struct {
	kind   string // "eval", "sweep", "pareto" or "spec"
	url    string // path and query
	body   []byte // POST body ("spec" only)
	bench  string
	iCache bool
	tech   power.Technology
	policy string
	specID int      // index into the spec variants ("spec" only)
	thetas []uint64 // the ladder a sweep asks for
	check  int      // the sweep point verified afterwards
}

// key identifies identical requests (whose responses must be identical).
func (q *serveReq) key() string { return q.url + "#" + string(q.body) }

// serveMix draws the request mix: 75% GET evaluations, Zipf-like over
// every (benchmark, side, technology, scheme) key; 18% GET dense sweeps
// from a seeded start; 5% GET Pareto frontiers; 2% POSTed evaluations of
// an example spec with its seed set to 0..3. The specs come round in
// seeded permutations, so nearly every POST finds its scenario evicted
// from the suite's 8-entry ad-hoc window and simulates.
type serveMix struct {
	r       *rand.Rand
	kinds   blockMix
	specIDs blockMix
	keys    *zipfKeys
	techs   []power.Technology
	benches []string
	pols    []string
	specs   [][]byte
}

func newServeMix(seed uint64, specs [][]byte) *serveMix {
	r := newRand(seed, "serve")
	ones := make([]int, len(specs))
	for i := range ones {
		ones[i] = 1
	}
	m := &serveMix{r: r, kinds: blockMix{r: r, weights: []int{75, 18, 5, 2}}, specIDs: blockMix{r: r, weights: ones},
		techs: power.Technologies(), benches: workload.Names(), pols: experiments.PolicyNames(), specs: specs}
	m.keys = newZipfKeys(r, len(m.benches)*2*len(m.techs)*len(m.pols), 1.1)
	return m
}

func sideParam(iCache bool) string {
	if iCache {
		return "i"
	}
	return "d"
}

func (m *serveMix) next() *serveReq {
	q := &serveReq{iCache: m.r.IntN(2) == 0, tech: m.techs[m.r.IntN(len(m.techs))]}
	switch m.kinds.next() {
	case 0:
		k := m.keys.next()
		q.kind = "eval"
		q.policy = m.pols[k%len(m.pols)]
		k /= len(m.pols)
		q.tech = m.techs[k%len(m.techs)]
		k /= len(m.techs)
		q.iCache = k%2 == 0
		q.bench = m.benches[k/2]
		q.url = "/api/v1/eval?" + url.Values{"benchmark": {q.bench}, "cache": {sideParam(q.iCache)},
			"tech": {q.tech.Name}, "policy": {q.policy}}.Encode()
	case 1:
		q.kind = "sweep"
		q.policy = []string{"opt-sleep", "opt-hybrid", "sleep-decay"}[m.r.IntN(3)]
		from := 500 + m.r.Uint64N(2001)
		q.thetas = geometricLadder(from, sweepTop, sweepPoints)
		q.check = m.r.IntN(len(q.thetas))
		q.url = "/api/v1/sweep?" + url.Values{"policy": {q.policy}, "cache": {sideParam(q.iCache)},
			"tech": {q.tech.Name}, "from": {strconv.FormatUint(from, 10)},
			"to": {strconv.FormatUint(sweepTop, 10)}, "points": {strconv.Itoa(sweepPoints)}}.Encode()
	case 2:
		q.kind = "pareto"
		q.url = "/api/v1/pareto?" + url.Values{"cache": {sideParam(q.iCache)}, "tech": {q.tech.Name}}.Encode()
	default:
		q.kind = "spec"
		q.specID = m.specIDs.next()
		q.policy = m.pols[m.r.IntN(len(m.pols))]
		q.url = "/api/v1/eval"
		q.body, _ = json.Marshal(map[string]any{"spec": json.RawMessage(m.specs[q.specID]),
			"cache": sideParam(q.iCache), "tech": q.tech.Name, "policy": q.policy})
	}
	return q
}

// sample is one sent request.
type sample struct {
	req        *serveReq
	due, start time.Time
	end        time.Time
	slept      bool // the sender waited for the due time (was idle)
	status     int
	hit        bool
	err        error
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.due) }
func (s *sample) ok() bool               { return s.err == nil && s.status == http.StatusOK }

// daemon is a running leakaged.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	client *http.Client
	done   chan error
	stderr bytes.Buffer
}

// readyWriter captures a daemon's stdout and signals once its first line
// (the listening address) is complete.
type readyWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string
	sent  bool
}

func (w *readyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if line, _, ok := strings.Cut(w.buf.String(), "\n"); ok && !w.sent {
		w.sent = true
		w.ready <- line
	}
	return len(p), nil
}

// startDaemon boots leakaged on an ephemeral port and waits for it to
// listen.
func startDaemon(e *env) (*daemon, error) {
	n := runtime.GOMAXPROCS(0)
	d := &daemon{done: make(chan error, 1), client: &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}}
	d.cmd = exec.Command(filepath.Join(e.opt.bin, "leakaged"), "-addr", "127.0.0.1:0",
		"-scale", strconv.FormatFloat(serveScale*e.opt.scale, 'g', -1, 64), "-quiet")
	out := &readyWriter{ready: make(chan string, 1)}
	d.cmd.Stdout, d.cmd.Stderr = out, &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	select {
	case line := <-out.ready:
		addr, ok := strings.CutPrefix(line, "leakaged: listening on ")
		if !ok {
			_ = d.stop()
			return nil, fmt.Errorf("leakaged: unexpected first line %q", line)
		}
		d.addr = addr
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("leakaged exited before listening: %v: %s", err, lastLine(d.stderr.Bytes()))
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, errors.New("leakaged did not listen within 30s")
	case <-e.ctx.Done():
		_ = d.stop()
		return nil, e.ctx.Err()
	}
	return d, nil
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs)
// and waits for it to exit.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-d.done
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("leakaged drain: %w: %s", err, lastLine(d.stderr.Bytes()))
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("leakaged did not drain within 30s")
	}
}

// get fetches a path and requires a 200.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// send issues one request of the mix, filling the sample's outcome and
// returning the body.
func (d *daemon) send(ctx context.Context, s *sample) []byte {
	method, body := http.MethodGet, io.Reader(nil)
	if s.req.body != nil {
		method, body = http.MethodPost, bytes.NewReader(s.req.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+d.addr+s.req.url, body)
	if err != nil {
		s.err = err
		return nil
	}
	resp, err := d.client.Do(req)
	if err != nil {
		s.err, s.end = err, time.Now()
		return nil
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	s.err, s.status, s.hit = err, resp.StatusCode, resp.Header.Get("X-Cache") == "hit"
	return b
}

// bodyLog keeps the first body of every distinct request and checks that
// every later response to the same request is byte-identical.
type bodyLog struct {
	mu     sync.Mutex
	first  map[string][]byte
	reqs   map[string]*serveReq
	differ []string
}

func (l *bodyLog) add(q *serveReq, body []byte) {
	k := q.key()
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.first[k]; !ok {
		l.first[k], l.reqs[k] = body, q
	} else if !bytes.Equal(prev, body) {
		l.differ = append(l.differ, q.url)
	}
}

// phase is one load phase's outcome.
type phase struct {
	name    string
	rate    float64 // offered rate; 0 for a closed loop
	samples []sample
	// Closed loops: the sending window, and the successful replies that
	// arrived within it. A request still in flight when the window closes
	// says nothing about the rate, and waiting for it would count the
	// idle client beside it.
	window    time.Duration
	completed int
	passed    bool
	p99       time.Duration
}

// latencies returns the phase's successful requests' latencies in ms.
func (p *phase) latencies(filter func(*sample) bool) []float64 {
	var out []float64
	for i := range p.samples {
		s := &p.samples[i]
		if s.ok() && (filter == nil || filter(s)) {
			out = append(out, float64(s.latency())/float64(time.Millisecond))
		}
	}
	return out
}

// closedLoop sends mix requests back to back from clients senders, each
// waiting for its reply before sending again, until dur has passed.
func closedLoop(e *env, d *daemon, mix *serveMix, log *bodyLog, name string, clients int, dur time.Duration) *phase {
	p := &phase{name: name}
	var mu sync.Mutex // guards mix and p.samples
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && e.ctx.Err() == nil {
				mu.Lock()
				s := sample{req: mix.next()}
				mu.Unlock()
				s.due = time.Now()
				s.start = s.due
				body := d.send(e.ctx, &s)
				if s.ok() {
					log.add(s.req, body)
				}
				mu.Lock()
				p.samples = append(p.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.window = dur
	for i := range p.samples {
		if s := &p.samples[i]; s.ok() && s.end.Sub(start) <= dur {
			p.completed++
		}
	}
	return p
}

// openLoop sends a Poisson schedule at rate over dur from GOMAXPROCS
// senders, each request timed from its due time. If at the end of the
// schedule more than serveBacklog x rate requests are still outstanding,
// the unsent rest is dropped and the phase fails.
func openLoop(e *env, d *daemon, mix *serveMix, log *bodyLog, name string, rate float64, dur time.Duration) *phase {
	sched := poissonSchedule(mix.r, rate, dur)
	p := &phase{name: name, rate: rate, samples: make([]sample, len(sched))}
	for i := range sched {
		p.samples[i].req = mix.next()
	}
	var next, completed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || stop.Load() || e.ctx.Err() != nil {
					return
				}
				s := &p.samples[i]
				s.due = t0.Add(sched[i])
				if wait := time.Until(s.due); wait > 0 {
					time.Sleep(wait)
					s.slept = true
				}
				s.start = time.Now()
				body := d.send(e.ctx, s)
				if s.ok() {
					log.add(s.req, body)
				}
				completed.Add(1)
			}
		}()
	}
	select {
	case <-time.After(time.Until(t0.Add(dur))):
	case <-e.ctx.Done():
	}
	outstanding := int64(len(sched)) - completed.Load()
	backlogged := float64(outstanding) > serveBacklog*rate
	if backlogged {
		stop.Store(true)
	}
	wg.Wait()
	// Requests never sent were never attempted.
	sent := p.samples[:0]
	failed := false
	for _, s := range p.samples {
		if !s.start.IsZero() {
			sent = append(sent, s)
			failed = failed || !s.ok()
		}
	}
	p.samples = sent
	lat := p.latencies(nil)
	p99, err := percentile(lat, 0.99)
	if err != nil && len(lat) > 0 {
		p99 = slices.Max(lat) // too few samples for a p99: judge by the slowest
	}
	p.p99 = time.Duration(p99 * float64(time.Millisecond))
	p.passed = !backlogged && !failed && p.p99 <= serveLimit
	return p
}

// capacity is the highest rate meeting the limits: between the highest
// passing step and the lowest failing step above it, the rate at which
// p99 crosses serveLimit, interpolated linearly (a failure that is not a
// latency miss counts as crossing at the passing rate). With no failing
// step above it, it is the highest passing rate.
func capacity(steps []*phase) float64 {
	passRate, passP99 := 0.0, 0.0
	for _, p := range steps {
		if p.passed && p.rate > passRate {
			passRate, passP99 = p.rate, float64(p.p99)
		}
	}
	var fail *phase
	for _, p := range steps {
		if !p.passed && p.rate > passRate && (fail == nil || p.rate < fail.rate) {
			fail = p
		}
	}
	if fail == nil {
		return passRate
	}
	limit, p99 := float64(serveLimit), float64(fail.p99)
	frac := 0.0
	if p99 > limit && p99 > passP99 {
		frac = (limit - passP99) / (p99 - passP99)
	}
	return passRate + (fail.rate-passRate)*max(0, min(1, frac))
}

// metricsSnapshot fetches the daemon's telemetry.
func (d *daemon) metricsSnapshot(ctx context.Context) (telemetry.Snapshot, error) {
	raw, err := d.get(ctx, "/metrics.json")
	if err != nil {
		return nil, err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return snap, nil
}

func counterDelta(a, b telemetry.Snapshot, scope, name string) float64 {
	return float64(b[scope].Counters[name]) - float64(a[scope].Counters[name])
}

func runServe(e *env) (*result, error) {
	r := newResult()
	scale := serveScale * e.opt.scale
	specs, err := specVariants(e.opt.root)
	if err != nil {
		return nil, err
	}

	// Set-up: boot the daemon and warm it with Figure 8, which simulates
	// every builtin benchmark.
	var setups []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		sp := e.tr.start(nil, "serve.setup", "harness")
		t0 := time.Now()
		d, err = startDaemon(e)
		if err != nil {
			return nil, err
		}
		if _, err := d.get(e.ctx, "/api/v1/figures/8"); err != nil {
			_ = d.stop()
			return nil, fmt.Errorf("warming leakaged: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp.end(nil)
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	r.e2e["setup_s"] = median(setups)
	r.samples["setup_s"] = len(setups)

	phases, err := servePhases(e, d, specs)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	log := phases.log
	var sentOK int
	for _, p := range phases.all {
		for i := range p.samples {
			s := &p.samples[i]
			r.attempted++
			if !s.ok() {
				r.failed++
			} else {
				sentOK++
			}
		}
	}
	for _, u := range log.differ {
		r.markWrong("two responses to %s differ", u)
	}
	suite, err := experiments.New(experiments.WithScale(scale), experiments.WithMetrics(telemetry.NewRegistry()))
	if err != nil {
		return nil, err
	}
	if err := verifyServe(e, r, suite, log, specs); err != nil {
		return nil, err
	}

	load := phases.load
	if load == nil { // a window too short for any ramp step
		load = &phase{}
	}
	// At the light reference rate the daemon idles between requests, and
	// its median is mostly the generator's timer overshoot and the vCPUs'
	// wake-up, which drift with the host, not with the server's code; at
	// saturation every request meets a busy server.
	sat := phases.saturated.latencies(nil)
	r.e2e["latency_p50_ms"] = median(sat)
	r.samples["latency_p50_ms"] = len(sat)
	r.e2e["ops_per_s"] = float64(phases.saturated.completed) / phases.saturated.window.Seconds()
	r.e2e["cpu_ms_per_op"] = float64(phases.cpu) / float64(time.Millisecond) / float64(max(1, sentOK))
	r.e2e["peak_rss_mb"] = phases.peakRSSMB
	e.logf("ramp: %s", phases.describe())
	if !e.opt.trace {
		return r, nil
	}

	first, last := phases.snaps[0], phases.snaps[len(phases.snaps)-1]
	var hits, oks int
	var late []float64
	for _, p := range phases.all {
		for i := range p.samples {
			s := &p.samples[i]
			if p.rate > 0 && s.ok() {
				oks++
				if s.hit {
					hits++
				}
			}
			if s.slept {
				late = append(late, float64(s.start.Sub(s.due))/float64(time.Millisecond))
			}
		}
	}
	r.layer["server.hit_ratio"] = ratio(float64(hits), float64(oks))
	r.layer["server.evictions"] = counterDelta(first, last, "server", "cache/evictions")
	r.layer["server.coalesced_waits"] = counterDelta(first, last, "server", "coalesce/coalesced_waits")
	r.layer["server.hit_p50_ms"] = median(load.latencies(func(s *sample) bool { return s.hit }))
	isMiss := func(kind string) func(*sample) bool {
		return func(s *sample) bool { return !s.hit && (kind == "" || s.req.kind == kind) }
	}
	for _, kind := range []string{"eval", "sweep", "pareto", "spec"} {
		r.layer["server.miss_p50_ms."+kind] = median(load.latencies(isMiss(kind)))
	}
	r.layer["server.admission_wait_est_ms"] = median(load.latencies(isMiss(""))) - median(phases.unloaded.latencies(isMiss("")))
	var rejected float64
	for _, p := range phases.all {
		for i := range p.samples {
			if st := p.samples[i].status; st == http.StatusTooManyRequests || st == http.StatusServiceUnavailable {
				rejected++
			}
		}
	}
	r.layer["server.rejected"] = rejected
	r.layer["experiments.adhoc_sims"] = counterDelta(first, last, "suite", "adhoc_sims")
	ref := phases.refLatencies()
	r.layer["serve.p50_ms_r100"] = median(ref)
	r.tail(e, "serve.p99_ms_r100", ref, 0.99)
	r.layer["serve.p50_ms_r400"] = median(load.latencies(nil))
	r.tail(e, "serve.p99_ms_r400", load.latencies(nil), 0.99)
	r.layer["serve.max_rps"] = capacity(phases.ladder)
	r.tail(e, "generator.late_p99_ms", late, 0.99)
	n := float64(max(1, r.attempted))
	r.layer["experiments.sim_ms_total"] = histDelta(first, last, "suite", "sim_ns") / 1e6 / n
	r.layer["experiments.pool_queue_wait_ms"] = histDelta(first, last, "pool", "queue_wait_ns") / 1e6 / n
	r.notExercised(exploreTraffic...)

	var sweeps []sweepQuery
	for _, p := range phases.all {
		for i := range p.samples {
			if q := p.samples[i].req; q.kind == "sweep" && len(sweeps) < kernelSweeps {
				sweeps = append(sweeps, sweepQuery{q.policy, q.iCache, q.tech, q.thetas})
			}
		}
	}
	k, err := kernelProbe(e.ctx, e.tr, suite, sweeps)
	if err != nil {
		return nil, err
	}
	k.report(r)
	if _, err := traceLayers(e, r, scale); err != nil {
		return nil, err
	}
	return r, nil
}

// servePhaseSet is the measured window's phases.
type servePhaseSet struct {
	unloaded  *phase
	saturated *phase
	ref       []*phase // at refRate, before and after the ramp
	load      *phase   // the ramp's first step, at loadRate
	ladder    []*phase // the first reference phase, then the ramp steps
	all       []*phase
	log       *bodyLog

	snaps     []telemetry.Snapshot // daemon telemetry at phase boundaries (traced runs)
	cpu       time.Duration        // daemon CPU time over the window
	peakRSSMB float64              // daemon VmHWM at the end
}

// refLatencies returns the latencies of every reference-rate phase.
func (ps *servePhaseSet) refLatencies() []float64 {
	var out []float64
	for _, p := range ps.ref {
		out = append(out, p.latencies(nil)...)
	}
	return out
}

func (ps *servePhaseSet) describe() string {
	var parts []string
	for _, p := range ps.ladder {
		parts = append(parts, fmt.Sprintf("%g rps p99 %.1f ms passed=%v", p.rate, float64(p.p99)/float64(time.Millisecond), p.passed))
	}
	return strings.Join(parts, "; ")
}

// servePhases runs the measured window against d.
func servePhases(e *env, d *daemon, specs [][]byte) (*servePhaseSet, error) {
	ps := &servePhaseSet{log: &bodyLog{first: map[string][]byte{}, reqs: map[string]*serveReq{}}}
	mix := newServeMix(e.opt.seed, specs)
	win := e.opt.window()
	snapshot := func() error {
		if !e.opt.trace {
			return nil
		}
		s, err := d.metricsSnapshot(e.ctx)
		ps.snaps = append(ps.snaps, s)
		return err
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(win)) }
	run := func(p func() *phase) error {
		sp := e.tr.start(nil, "serve.phase", "harness")
		ph := p()
		ps.all = append(ps.all, ph)
		for i := range ph.samples {
			s := &ph.samples[i]
			e.tr.record(sp, "serve.request", "server", s.due, s.end, map[string]any{
				"kind": s.req.kind, "status": s.status, "hit": s.hit, "late_ns": s.start.Sub(s.due).Nanoseconds()})
		}
		sp.end(map[string]any{"phase": ph.name, "rate": ph.rate, "requests": len(ph.samples), "passed": ph.passed})
		e.pace.tick()
		return snapshot()
	}

	if err := snapshot(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := run(func() *phase {
		ps.unloaded = closedLoop(e, d, mix, ps.log, "unloaded", 1, share(shareUnloaded))
		return ps.unloaded
	}); err != nil {
		return nil, err
	}
	ref := func(dur time.Duration) error {
		return run(func() *phase {
			p := openLoop(e, d, mix, ps.log, fmt.Sprintf("r%d", refRate), refRate, dur)
			ps.ref = append(ps.ref, p)
			return p
		})
	}
	refChunk := share(shareRef) / refChunks
	for i := 0; i < refChunks; i++ {
		if err := ref(refChunk); err != nil {
			return nil, err
		}
	}
	ps.ladder = append(ps.ladder, ps.ref[0])
	ps.saturated = &phase{name: "saturated"}
	for i := 0; i < satChunks; i++ {
		if err := run(func() *phase {
			p := closedLoop(e, d, mix, ps.log, "saturated", runtime.GOMAXPROCS(0), share(shareSat)/satChunks)
			ps.saturated.samples = append(ps.saturated.samples, p.samples...)
			ps.saturated.window += p.window
			ps.saturated.completed += p.completed
			return p
		}); err != nil {
			return nil, err
		}
	}
	rampEnd := start.Add(share(shareUnloaded + shareRef + shareSat + shareRamp))
	lo, hi := 0.0, 0.0 // highest passing and lowest failing rate; 0 = none yet
	if ps.ref[0].passed {
		lo = refRate
	}
	for rate := float64(loadRate); time.Until(rampEnd) >= share(shareStep); {
		var p *phase
		if err := run(func() *phase {
			p = openLoop(e, d, mix, ps.log, fmt.Sprintf("ramp%g", rate), rate, share(shareStep))
			return p
		}); err != nil {
			return nil, err
		}
		ps.ladder = append(ps.ladder, p)
		if ps.load == nil {
			ps.load = p
		}
		if p.passed {
			lo = rate
		} else {
			hi = rate
		}
		if hi == 0 {
			rate += rampStep
			continue
		}
		if hi-lo <= rampFinest {
			break
		}
		rate = (lo + hi) / 2
	}
	for rest := time.Until(start.Add(win)); rest > share(shareStep)/2; rest = time.Until(start.Add(win)) {
		if err := ref(min(rest, refChunk)); err != nil {
			return nil, err
		}
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	ps.cpu = cpu1 - cpu0
	if ps.peakRSSMB, err = procStatusMB(d.cmd.Process.Pid, "VmHWM"); err != nil {
		return nil, err
	}
	return ps, nil
}

// verifyServe checks every distinct response: each must decode, each
// evaluation must equal the in-process EvaluateCellContext (or, for a
// POSTed spec, EvaluateScenarioCellContext) at the daemon's scale, each
// sweep's ladder and one seeded point of it must match, and each Pareto
// frontier must equal ParetoFrontierContext.
func verifyServe(e *env, r *result, suite *experiments.Suite, log *bodyLog, specs [][]byte) error {
	scenarios := make([]*spec.Spec, len(specs))
	for i, b := range specs {
		sp, err := spec.Parse(b)
		if err != nil {
			return err
		}
		scenarios[i] = sp
	}
	keys := make([]string, 0, len(log.reqs))
	for k := range log.reqs {
		keys = append(keys, k)
	}
	// Spec requests sorted by spec, so each scenario simulates once.
	sort.Slice(keys, func(i, j int) bool {
		a, b := log.reqs[keys[i]], log.reqs[keys[j]]
		if a.specID != b.specID {
			return a.specID < b.specID
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		q, body := log.reqs[k], log.first[k]
		if err := verifyResponse(e.ctx, suite, q, body, scenarios); err != nil {
			r.markWrong("%s %s: %v", q.kind, q.url, err)
		}
	}
	return nil
}

// strictDecode decodes exactly one JSON value with no unknown fields.
func strictDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func verifyResponse(ctx context.Context, suite *experiments.Suite, q *serveReq, body []byte, scenarios []*spec.Spec) error {
	switch q.kind {
	case "eval", "spec":
		var got experiments.CellEvaluation
		if err := strictDecode(body, &got); err != nil {
			return err
		}
		pol, err := experiments.ParsePolicy(q.policy, q.tech)
		if err != nil {
			return err
		}
		var want experiments.CellEvaluation
		if q.kind == "eval" {
			want, err = suite.EvaluateCellContext(ctx, q.bench, q.iCache, q.tech, pol)
		} else {
			want, err = suite.EvaluateScenarioCellContext(ctx, scenarios[q.specID], q.iCache, q.tech, pol)
		}
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("served %+v, in-process %+v", got, want)
		}
	case "sweep":
		var got struct {
			Policy     string                   `json:"policy"`
			Cache      string                   `json:"cache"`
			Technology string                   `json:"technology"`
			Points     []experiments.SweepPoint `json:"points"`
		}
		if err := strictDecode(body, &got); err != nil {
			return err
		}
		if len(got.Points) != len(q.thetas) {
			return fmt.Errorf("%d points, want %d", len(got.Points), len(q.thetas))
		}
		for i, p := range got.Points {
			if p.Theta != q.thetas[i] {
				return fmt.Errorf("point %d theta %d, want %d", i, p.Theta, q.thetas[i])
			}
		}
		want, err := suite.SweepThetaContext(ctx, q.policy, q.iCache, q.tech, q.thetas[q.check:q.check+1])
		if err != nil {
			return err
		}
		if got.Points[q.check] != want[0] {
			return fmt.Errorf("point %d %+v, in-process %+v", q.check, got.Points[q.check], want[0])
		}
	case "pareto":
		var got struct {
			Cache      string                    `json:"cache"`
			Technology string                    `json:"technology"`
			Points     []experiments.ParetoPoint `json:"points"`
		}
		if err := strictDecode(body, &got); err != nil {
			return err
		}
		want, err := suite.ParetoFrontierContext(ctx, q.iCache, q.tech, nil)
		if err != nil {
			return err
		}
		if len(got.Points) != len(want) {
			return fmt.Errorf("%d points, want %d", len(got.Points), len(want))
		}
		for i := range want {
			if got.Points[i] != want[i] {
				return fmt.Errorf("point %d %+v, in-process %+v", i, got.Points[i], want[i])
			}
		}
	}
	return nil
}
