package cpu

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

// refMachine is the buffered front end the core replaced, kept as an
// independent reference: consume copies each instruction into a group
// buffer, and flushGroup replays the whole group — fetch, then every data
// access in order — once the next instruction (or the end of the stream)
// closes it. It emits one trace.Event per access and goes through
// Hierarchy.Fetch/Data rather than the core's inline walk.
type refMachine struct {
	width  int
	hier   *cache.Hierarchy
	group  []workload.Instr
	res    Result
	events []trace.Event
}

func (m *refMachine) consume(in workload.Instr) bool {
	if len(m.group) > 0 {
		last := m.group[len(m.group)-1]
		sameLine := (in.PC >> 6) == (m.group[0].PC >> 6)
		sequential := in.PC == last.PC+4
		if len(m.group) >= m.width || !sequential || !sameLine {
			m.flushGroup()
		}
	}
	m.group = append(m.group, in)
	m.res.Instructions++
	return true
}

func (m *refMachine) flushGroup() {
	if len(m.group) == 0 {
		return
	}
	m.res.FetchGroups++
	pc := m.group[0].PC
	out := m.hier.Fetch(pc)
	m.record(pc>>6, pc, trace.L1I, trace.Fetch, out)
	if out.L1.Hit {
		m.res.Cycles++
	} else {
		m.res.Cycles += uint64(out.Latency)
	}
	for _, in := range m.group {
		if in.Kind == workload.Op {
			continue
		}
		kind := trace.Load
		if in.Kind == workload.Store {
			kind = trace.Store
		}
		out := m.hier.Data(in.Addr)
		m.record(in.Addr>>6, in.PC, trace.L1D, kind, out)
		if !out.L1.Hit {
			// Stall beyond the pipelined L1 hit latency.
			m.res.Cycles += uint64(out.Latency - out.L1.Latency)
		}
	}
	m.group = m.group[:0]
}

// record appends the L1 event of one hierarchy access, and the L2 event
// when the L1 missed, both at the current cycle.
func (m *refMachine) record(lineAddr, pc uint64, l1 trace.CacheID, kind trace.Kind, out cache.AccessOutcome) {
	m.events = append(m.events, trace.Event{Cycle: m.res.Cycles, LineAddr: lineAddr, PC: pc,
		Frame: uint32(out.L1.Frame), Cache: l1, Kind: kind, Miss: !out.L1.Hit})
	if out.L2Used {
		m.events = append(m.events, trace.Event{Cycle: m.res.Cycles, LineAddr: lineAddr, PC: pc,
			Frame: uint32(out.L2.Frame), Cache: trace.L2, Kind: kind, Miss: !out.L2.Hit})
	}
}

// refRun runs w through the reference model on a fresh hierarchy.
func refRun(t testing.TB, w workload.Workload, hc cache.HierarchyConfig, cfg Config) (Result, []trace.Event) {
	t.Helper()
	h, err := cache.NewHierarchy(hc)
	if err != nil {
		t.Fatal(err)
	}
	m := &refMachine{width: cfg.Width, hier: h}
	w.Emit(m.consume)
	m.flushGroup()
	m.res.L1I, m.res.L1D, m.res.L2 = h.L1I().Stats(), h.L1D().Stats(), h.L2().Stats()
	return m.res, m.events
}

// matchSink returns a sink that compares the stream against want event by
// event, recording the first mismatch in *failure, and the count of
// events seen in *seen.
func matchSink(want []trace.Event, seen *int, failure *error) stream.Sink {
	return func(b *stream.Batch) error {
		if len(b.Cycles) != b.Len() || len(b.Misses) != b.Len() {
			return fmt.Errorf("batch columns of length %d, want Len() %d", len(b.Cycles), b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			e := b.Event(i)
			if *failure == nil {
				if *seen >= len(want) {
					*failure = fmt.Errorf("extra event %d %+v", *seen, e)
				} else if e != want[*seen] {
					*failure = fmt.Errorf("event %d: got %+v, want %+v", *seen, e, want[*seen])
				}
			}
			*seen++
		}
		return nil
	}
}

// checkAgainst runs the core on w and hc and compares every event and the
// final Result with want.
func checkAgainst(t *testing.T, w workload.Workload, hc cache.HierarchyConfig, cfg Config, wantRes Result, want []trace.Event) {
	t.Helper()
	h, err := cache.NewHierarchy(hc)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	var failure error
	res, err := RunStreamContext(context.Background(), w, h, cfg, matchSink(want, &seen, &failure))
	if err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatal(failure)
	}
	if seen != len(want) {
		t.Fatalf("core emitted %d events, reference %d", seen, len(want))
	}
	if res != wantRes {
		t.Fatalf("Result:\n core %+v\n  ref %+v", res, wantRes)
	}
}

// TestRetireMatchesGroupReference pins eager retirement to the buffered
// reference on every built-in benchmark: the same events in the same
// order, and the same Result. It runs at the paper's width and at width
// 3: the built-ins' sequential runs start on 16-byte boundaries, so at
// width 4 a group never straddles an I-line and only an odd width
// exercises the same-line break.
func TestRetireMatchesGroupReference(t *testing.T) {
	for _, name := range workload.Names() {
		for _, cfg := range []Config{DefaultConfig(), {Width: 3}} {
			t.Run(fmt.Sprintf("%s/width%d", name, cfg.Width), func(t *testing.T) {
				res, events := refRun(t, workload.MustNew(name, 0.05), cache.AlphaLike(), cfg)
				if len(events) == 0 {
					t.Fatal("reference emitted no events")
				}
				checkAgainst(t, workload.MustNew(name, 0.05), cache.AlphaLike(), cfg, res, events)
			})
		}
	}
}

// fuzzInstrs decodes a byte string into an instruction stream, 4 bytes
// per instruction: a control byte, then a 3-byte operand. The control
// byte's low two bits choose the PC step — sequential (two of four
// cases, so runs longer than the width are common), a jump within the
// same 64-byte I-line, or a jump anywhere in a 16 KB code window — and
// the next two bits the kind (op, load, store, store). The operand is
// the jump target and the data address (in a 4 MB window, so accesses
// both hit and conflict).
func fuzzInstrs(data []byte) []workload.Instr {
	const codeBase = 0x400000
	ins := make([]workload.Instr, 0, len(data)/4)
	pc := uint64(codeBase)
	for i := 0; i+4 <= len(data); i += 4 {
		ctl := data[i]
		arg := uint64(binary.LittleEndian.Uint32(data[i:])) >> 8
		switch ctl & 3 {
		case 0, 1:
			if len(ins) > 0 {
				pc += 4
			}
		case 2:
			pc = pc&^63 | (arg&15)*4
		case 3:
			pc = codeBase + (arg&(16<<10-1))&^3
		}
		in := workload.Instr{PC: pc, Kind: workload.Op}
		switch (ctl >> 2) & 3 {
		case 1:
			in.Kind = workload.Load
		case 2, 3:
			in.Kind = workload.Store
		}
		if in.Kind != workload.Op {
			in.Addr = 0x10000000 + arg<<2
		}
		ins = append(ins, in)
	}
	return ins
}

// fuzzHierarchy is a small hierarchy, so a short fuzz stream still
// evicts at every level.
func fuzzHierarchy() cache.HierarchyConfig {
	hc := cache.AlphaLike()
	hc.L1I.SizeBytes, hc.L1D.SizeBytes, hc.L2.SizeBytes = 1<<10, 1<<10, 8<<10
	return hc
}

// FuzzRetire compares the core with the buffered reference on arbitrary
// instruction streams and widths: every event and the final Result.
func FuzzRetire(f *testing.F) {
	seq := func(n int, ctl byte) []byte {
		b := make([]byte, 0, 4*n)
		for i := 0; i < n; i++ {
			b = append(b, ctl, byte(i*37), byte(i*11), byte(i))
		}
		return b
	}
	f.Add(uint8(3), seq(40, 0))                                             // straight-line ops: runs past the width and across lines
	f.Add(uint8(3), seq(40, 0x08))                                          // back-to-back stores
	f.Add(uint8(0), seq(12, 0x04))                                          // width 1, loads
	f.Add(uint8(2), append(seq(6, 0x03), seq(9, 0x0c)...))                  // far jumps, then sequential stores
	f.Add(uint8(3), []byte{0, 0, 0, 0, 2, 5, 0, 0, 2, 6, 0, 0, 2, 7, 0, 0}) // same-line jumps: forward, then sequential
	f.Add(uint8(3), append([]byte{2, 14, 0, 0}, seq(5, 0x04)...))           // a sequential run of loads crossing an I-line mid-group
	f.Add(uint8(7), append(seq(20, 0x01), seq(20, 0x0a)...))                // wide groups, then same-line jumps with stores
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		cfg := Config{Width: int(width%8) + 1} // widths 1..8
		ins := fuzzInstrs(data)
		w := &scripted{name: "fuzz", ins: ins}
		res, events := refRun(t, w, fuzzHierarchy(), cfg)
		checkAgainst(t, w, fuzzHierarchy(), cfg, res, events)
	})
}

// sweepGeometries are the L1 geometries of the experiments package's
// geometry sweep (GeometrySweepPoints): size in KB and associativity,
// applied to both L1s of the paper's hierarchy.
var sweepGeometries = []struct{ sizeKB, assoc int }{
	{16, 2}, {32, 2}, {64, 2}, {128, 2}, {64, 4},
}

func sweepHierarchy(sizeKB, assoc int) cache.HierarchyConfig {
	hc := cache.AlphaLike()
	hc.L1I.SizeBytes, hc.L1I.Assoc = sizeKB<<10, assoc
	hc.L1D.SizeBytes, hc.L1D.Assoc = sizeKB<<10, assoc
	return hc
}

// TestRunManyMatchesSolo drives the five sweep geometries from one
// instruction stream and checks that each machine's events and Result
// equal a solo RunStreamContext on the same hierarchy configuration.
func TestRunManyMatchesSolo(t *testing.T) {
	for _, name := range []string{"gzip", "gcc", "applu"} {
		t.Run(name, func(t *testing.T) {
			type solo struct {
				res    Result
				events []trace.Event
			}
			solos := make([]solo, len(sweepGeometries))
			for k, g := range sweepGeometries {
				res, err := runEvents(context.Background(), workload.MustNew(name, 0.02), mustNewHier(t, sweepHierarchy(g.sizeKB, g.assoc)), DefaultConfig(), func(e trace.Event) {
					solos[k].events = append(solos[k].events, e)
				})
				if err != nil {
					t.Fatal(err)
				}
				solos[k].res = res
			}
			targets := make([]Target, len(sweepGeometries))
			seen := make([]int, len(sweepGeometries))
			failures := make([]error, len(sweepGeometries))
			for k, g := range sweepGeometries {
				targets[k] = Target{
					Hier: mustNewHier(t, sweepHierarchy(g.sizeKB, g.assoc)),
					Sink: matchSink(solos[k].events, &seen[k], &failures[k]),
				}
			}
			results, err := RunManyContext(context.Background(), workload.MustNew(name, 0.02), DefaultConfig(), targets)
			if err != nil {
				t.Fatal(err)
			}
			for k, g := range sweepGeometries {
				if failures[k] != nil {
					t.Errorf("%dKB/%d-way: %v", g.sizeKB, g.assoc, failures[k])
				}
				if seen[k] != len(solos[k].events) {
					t.Errorf("%dKB/%d-way: fan-out emitted %d events, solo %d", g.sizeKB, g.assoc, seen[k], len(solos[k].events))
				}
				if results[k] != solos[k].res {
					t.Errorf("%dKB/%d-way Result:\n fan-out %+v\n    solo %+v", g.sizeKB, g.assoc, results[k], solos[k].res)
				}
			}
		})
	}
}

// TestRunManyRejects covers RunManyContext's argument checks: no targets,
// a nil sink or hierarchy in any slot, and two targets sharing one
// hierarchy are all rejected before any simulation work.
func TestRunManyRejects(t *testing.T) {
	w := workload.MustNew("gzip", 0.01)
	h := newHier(t)
	nop := func(*stream.Batch) error { return nil }
	for _, tc := range []struct {
		name    string
		targets []Target
	}{
		{"no targets", nil},
		{"nil sink", []Target{{Hier: h, Sink: nop}, {Hier: newHier(t)}}},
		{"nil hierarchy", []Target{{Hier: h, Sink: nop}, {Sink: nop}}},
		{"shared hierarchy", []Target{{Hier: h, Sink: nop}, {Hier: h, Sink: nop}}},
	} {
		res, err := RunManyContext(context.Background(), w, DefaultConfig(), tc.targets)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if res != nil {
			t.Errorf("%s: ran a simulation: %+v", tc.name, res)
		}
	}
	if h.L1I().Stats().Accesses != 0 {
		t.Error("a rejected run touched the hierarchy")
	}
	if _, err := RunManyContext(context.Background(), w, Config{}, []Target{{Hier: h, Sink: nop}}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := RunManyContext(context.Background(), nil, DefaultConfig(), []Target{{Hier: h, Sink: nop}}); err == nil {
		t.Error("nil workload accepted")
	}
}

func mustNewHier(t testing.TB, hc cache.HierarchyConfig) *cache.Hierarchy {
	t.Helper()
	h, err := cache.NewHierarchy(hc)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
