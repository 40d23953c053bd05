package leakage

import (
	"context"
	"math"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

func simEvent(cycle uint64, frame uint32) trace.Event {
	return trace.Event{Cycle: cycle, Frame: frame, Cache: trace.L1D, Kind: trace.Load}
}

func TestSimulatorValidation(t *testing.T) {
	tech := power.Default()
	if _, err := NewSimulator(tech, nil, 4); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewSimulator(tech, NewDecaySimulation(100), 0); err == nil {
		t.Error("zero frames accepted")
	}
	bad := tech
	bad.PActive = 0
	if _, err := NewSimulator(bad, NewDecaySimulation(100), 4); err == nil {
		t.Error("invalid technology accepted")
	}
	s, err := NewSimulator(tech, NewDecaySimulation(100), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Access(simEvent(1, 99)); err == nil {
		t.Error("out-of-range frame accepted")
	}
	s.Access(simEvent(10, 0))
	if err := s.Access(simEvent(5, 0)); err == nil {
		t.Error("time travel accepted")
	}
	if _, err := s.Finish(5); err == nil {
		t.Error("early horizon accepted")
	}
	if _, err := s.Finish(20); err != nil {
		t.Fatal(err)
	}
	if err := s.Access(simEvent(30, 0)); err == nil {
		t.Error("Access after Finish accepted")
	}
	if _, err := s.Finish(30); err == nil {
		t.Error("double Finish accepted")
	}
}

func TestSimulatorUntouchedFramesGated(t *testing.T) {
	tech := power.Default()
	s, _ := NewSimulator(tech, NewDecaySimulation(1000), 10)
	// No events at all: every frame sleeps for the whole run.
	ev, err := s.Finish(100000)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - tech.PSleep/tech.PActive
	if math.Abs(ev.Savings-want) > 1e-9 {
		t.Errorf("untouched savings = %g, want %g", ev.Savings, want)
	}
}

func TestSimulatorDecayTimeline(t *testing.T) {
	// One frame, two accesses 100K apart, theta=10K: the frame burns 10K
	// active after each access, then sleeps; the second access pays the
	// induced miss.
	tech := power.Default()
	s, _ := NewSimulator(tech, NewDecaySimulation(10000), 1)
	s.Access(simEvent(0, 0))
	s.Access(simEvent(100000, 0))
	ev, err := s.Finish(100001)
	if err != nil {
		t.Fatal(err)
	}
	tr := tech.Transitions()
	// The decay boundary is inclusive: the frame stays active through
	// cycle lastAccess+theta and sleeps from the next cycle, so the
	// active window is theta+1 cycles.
	want := 10001*tech.PActive + // active window after access 0
		89999*tech.PSleep + // asleep until access 1
		tr.EAS + tr.ESA + tech.CD + // turn-off, wake, re-fetch
		1*tech.PActive // the final cycle after access 1 (active window)
	if math.Abs(ev.Energy-want) > 1e-6*want {
		t.Errorf("energy = %g, want %g", ev.Energy, want)
	}
}

func TestSimulatorMatchesIntervalModelOnTrace(t *testing.T) {
	// The headline cross-check: simulate cache decay directly on a real
	// benchmark trace and compare with the interval-based analytical
	// evaluation. The two make different micro-approximations (the
	// analytical model folds wake/turn-off segments into per-interval
	// formulas; counter leakage is analytical-only), so agreement within
	// ~2 points is the assertion.
	tech := power.Default()
	tech.CounterLeak = 0 // the simulator does not model decay counters

	// Build the event stream and interval distribution from one run.
	runCheck := func(theta uint64) {
		sim, err := NewSimulator(tech, NewDecaySimulation(theta), 1024)
		if err != nil {
			t.Fatal(err)
		}
		col := newTestCollector(t)
		events, total := testTraceEvents(t)
		for _, e := range events {
			if err := sim.Access(e); err != nil {
				t.Fatal(err)
			}
			if err := col.AddCols(e.Cycle, e.LineAddr, e.PC, e.Frame, e.Cache, e.Kind, e.Miss); err != nil {
				t.Fatal(err)
			}
		}
		simEv, err := sim.Finish(total)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := col.Finish(total)
		if err != nil {
			t.Fatal(err)
		}
		anaEv, err := Evaluate(tech, dist, SleepDecay{Theta: theta})
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(simEv.Savings - anaEv.Savings); diff > 0.02 {
			t.Errorf("theta=%d: simulated %.4f vs analytical %.4f (diff %.4f)",
				theta, simEv.Savings, anaEv.Savings, diff)
		}
	}
	runCheck(10000)
	runCheck(2000)
}

func TestSimulatorPeriodicDrowsyAgainstExpectation(t *testing.T) {
	// The analytical PeriodicDrowsy uses an expected W/2 wait; the
	// simulator uses exact boundaries. On a long idle frame they must be
	// within the wait-quantization error.
	tech := power.Default()
	s, _ := NewSimulator(tech, NewPeriodicDrowsySimulation(2000), 1)
	s.Access(simEvent(0, 0))
	ev, err := s.Finish(1000000)
	if err != nil {
		t.Fatal(err)
	}
	// Exact: 2000 active + rest drowsy (+ one EAD transition).
	tr := tech.Transitions()
	want := 2000*tech.PActive + 998000*tech.PDrowsy + tr.EAD
	if math.Abs(ev.Energy-want) > 1e-6*want {
		t.Errorf("periodic drowsy energy = %g, want %g", ev.Energy, want)
	}
	if ev.Policy != "Drowsy(2000) (simulated)" {
		t.Errorf("policy label %q", ev.Policy)
	}
}

// Test helpers: one shared benchmark trace for the cross-validation tests.

var (
	sharedEvents []trace.Event
	sharedTotal  uint64
)

func testTraceEvents(t *testing.T) ([]trace.Event, uint64) {
	t.Helper()
	if sharedEvents != nil {
		return sharedEvents, sharedTotal
	}
	w := workload.MustNew("gzip", 0.05)
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	res, err := cpu.RunStreamContext(context.Background(), w, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		for i, c := range b.Caches {
			if c == trace.L1D {
				events = append(events, b.Event(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedEvents, sharedTotal = events, res.Cycles
	return sharedEvents, sharedTotal
}

func newTestCollector(t *testing.T) *interval.Collector {
	t.Helper()
	col, err := interval.NewCollector(trace.L1D, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	return col
}
