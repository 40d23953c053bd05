package prefetch

import (
	"math/rand"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/sim/trace"
)

func dEvent(cycle, lineAddr, pc uint64) trace.Event {
	return trace.Event{Cycle: cycle, LineAddr: lineAddr, PC: pc, Cache: trace.L1D, Kind: trace.Load}
}

func iEvent(cycle, lineAddr uint64) trace.Event {
	return trace.Event{Cycle: cycle, LineAddr: lineAddr, PC: lineAddr << 6, Cache: trace.L1I, Kind: trace.Fetch}
}

func TestConfig(t *testing.T) {
	if !ForICache().NextLine || ForICache().Stride {
		t.Error("I-cache config wrong (paper: next-line only)")
	}
	if !ForDCache().NextLine || !ForDCache().Stride {
		t.Error("D-cache config wrong (paper: next-line + stride)")
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewClassifier(Config{}); err == nil {
		t.Error("NewClassifier accepted empty config")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewClassifier did not panic")
		}
	}()
	MustNewClassifier(Config{})
}

func TestNextLineDetection(t *testing.T) {
	c := MustNewClassifier(ForICache())
	// Line 100 accessed at cycle 10 (opens its interval), line 99 accessed
	// at cycle 50, line 100 re-accessed at cycle 80: prefetchable.
	c.Observe(iEvent(10, 100))
	c.Observe(iEvent(50, 99))
	flags := c.Classify(iEvent(80, 100), 10)
	if flags&interval.NLPrefetchable == 0 {
		t.Error("next-line access inside interval not detected")
	}
	nl, _ := c.Stats()
	if nl != 1 {
		t.Errorf("nl hits = %d", nl)
	}
}

func TestNextLineOutsideInterval(t *testing.T) {
	c := MustNewClassifier(ForICache())
	// Predecessor accessed BEFORE the interval opened: not prefetchable.
	c.Observe(iEvent(5, 99))
	c.Observe(iEvent(10, 100))
	flags := c.Classify(iEvent(80, 100), 10)
	if flags != 0 {
		t.Errorf("stale predecessor flagged: %v", flags)
	}
	// Predecessor at exactly the closing cycle: too late to prefetch.
	c2 := MustNewClassifier(ForICache())
	c2.Observe(iEvent(10, 200))
	c2.Observe(iEvent(80, 199))
	if c2.Classify(iEvent(80, 200), 10) != 0 {
		t.Error("same-cycle predecessor flagged")
	}
}

func TestNextLineAtLineZero(t *testing.T) {
	c := MustNewClassifier(ForICache())
	c.Observe(iEvent(10, 0))
	// Line 0 has no predecessor; must not underflow.
	if got := c.Classify(iEvent(80, 0), 10); got != 0 {
		t.Errorf("line 0 flagged: %v", got)
	}
}

func TestStrideDetection(t *testing.T) {
	c := MustNewClassifier(ForDCache())
	const pc = 0x400100
	// A load marching by 128 bytes (2 lines): lines 10, 12, 14, 16...
	// After two equal strides the predictor must flag the next.
	c.Observe(dEvent(10, 10, pc))
	c.Observe(dEvent(20, 12, pc)) // stride = 2 lines (first observation)
	c.Observe(dEvent(30, 14, pc)) // stride repeated: confirmed
	// Interval of line 16 opened at cycle 5; closing access at cycle 40 by
	// the same load, predicted by the cycle-30 access (inside interval).
	flags := c.Classify(dEvent(40, 16, pc), 5)
	if flags&interval.StridePrefetchable == 0 {
		t.Error("confirmed stride not detected")
	}
	_, st := c.Stats()
	if st != 1 {
		t.Errorf("stride hits = %d", st)
	}
}

func TestStrideNotConfirmedBySingleRepeat(t *testing.T) {
	c := MustNewClassifier(ForDCache())
	const pc = 0x400100
	c.Observe(dEvent(10, 10, pc))
	c.Observe(dEvent(20, 12, pc)) // one stride observation only
	flags := c.Classify(dEvent(30, 14, pc), 5)
	if flags&interval.StridePrefetchable != 0 {
		t.Error("unconfirmed stride flagged (paper: same stride at least twice)")
	}
}

func TestStrideBrokenPattern(t *testing.T) {
	c := MustNewClassifier(ForDCache())
	const pc = 0x400100
	c.Observe(dEvent(10, 10, pc))
	c.Observe(dEvent(20, 12, pc))
	c.Observe(dEvent(30, 14, pc)) // confirmed, stride 2
	c.Observe(dEvent(40, 99, pc)) // pattern broken
	flags := c.Classify(dEvent(50, 101, pc), 5)
	if flags&interval.StridePrefetchable != 0 {
		t.Error("broken stride still flagged")
	}
}

func TestStrideIgnoresFetches(t *testing.T) {
	c := MustNewClassifier(Config{Stride: true})
	e := iEvent(10, 10)
	c.Observe(e)
	c.Observe(iEvent(20, 12))
	c.Observe(iEvent(30, 14))
	if got := c.Classify(iEvent(40, 16), 5); got != 0 {
		t.Errorf("fetch events drove stride predictor: %v", got)
	}
}

func TestStrideZeroStrideNeverFlags(t *testing.T) {
	c := MustNewClassifier(ForDCache())
	const pc = 0x400200
	for cy := uint64(10); cy <= 50; cy += 10 {
		c.Observe(dEvent(cy, 7, pc))
	}
	if got := c.Classify(dEvent(60, 7, pc), 5); got&interval.StridePrefetchable != 0 {
		t.Error("zero stride flagged (same line repeat is not a stride prefetch)")
	}
}

func TestNLPriorityOverStride(t *testing.T) {
	// When both predictors would fire, the interval is counted as NL (the
	// paper's P-NL and P-stride are disjoint shares).
	c := MustNewClassifier(ForDCache())
	const pc = 0x400300
	c.Observe(dEvent(10, 20, pc))
	c.Observe(dEvent(20, 21, pc)) // stride 1 = next line too
	c.Observe(dEvent(30, 22, pc))
	flags := c.Classify(dEvent(40, 23, pc), 25)
	if flags&interval.NLPrefetchable == 0 || flags&interval.StridePrefetchable != 0 {
		t.Errorf("flags = %v, want NL only", flags)
	}
}

func TestEndToEndWithCollector(t *testing.T) {
	// Wire a classifier into a collector and verify flags propagate.
	cl := MustNewClassifier(ForDCache())
	col, err := interval.NewCollector(trace.L1D, 8, cl)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cycle, line uint64, frame uint32) trace.Event {
		return trace.Event{Cycle: cycle, LineAddr: line, Frame: frame, PC: 0x400000, Cache: trace.L1D, Kind: trace.Load}
	}
	// Frame 0 holds line 100; frame 1 holds line 99.
	col.Add(mk(10, 100, 0))
	col.Add(mk(50, 99, 1))
	col.Add(mk(90, 100, 0)) // closes an 80-cycle interval; NL-prefetchable
	d, err := col.Finish(120)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Count(func(l uint64, f interval.Flags) bool { return f&interval.NLPrefetchable != 0 })
	if n != 1 {
		t.Errorf("NL-flagged intervals = %d, want 1", n)
	}
}

func TestAnalyze(t *testing.T) {
	d := interval.NewDistribution(4, 1000)
	d.Add(3, 0, 10)                             // short
	d.Add(100, interval.NLPrefetchable, 5)      // mid, NL
	d.Add(500, 0, 5)                            // mid, NP
	d.Add(5000, interval.StridePrefetchable, 2) // long, stride
	d.Add(9000, 0, 3)                           // long, NP
	d.Add(1000, interval.Leading, 7)            // edge: excluded
	p := Analyze(interval.NewAggregates(d), 6, 1057)
	if p.Total() != 25 {
		t.Errorf("total = %d, want 25 (edges excluded)", p.Total())
	}
	if p.ShortCount != 10 || p.MidCount != 10 || p.LongCount != 5 {
		t.Errorf("regime counts: %d/%d/%d", p.ShortCount, p.MidCount, p.LongCount)
	}
	if p.MidNL != 5 || p.LongStride != 2 {
		t.Errorf("prefetch counts: midNL=%d longStride=%d", p.MidNL, p.LongStride)
	}
	if got := p.NLShare(); got != 0.2 {
		t.Errorf("NLShare = %g, want 0.2", got)
	}
	if got := p.StrideShare(); got != 0.08 {
		t.Errorf("StrideShare = %g, want 0.08", got)
	}
	if got := p.PrefetchableShare(); got != 0.28 {
		t.Errorf("PrefetchableShare = %g", got)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	d := interval.NewDistribution(1, 1)
	p := Analyze(interval.NewAggregates(d), 6, 1057)
	if p.NLShare() != 0 || p.StrideShare() != 0 {
		t.Error("empty distribution has non-zero shares")
	}
}

// analyzeWalk is the bucket-walk form of Analyze: every interior bucket
// lands in the first regime whose upper boundary its length does not
// exceed.
func analyzeWalk(d *interval.Distribution, a, b float64) Prefetchability {
	out := Prefetchability{A: a, B: b}
	d.Each(func(length uint64, flags interval.Flags, count uint64) bool {
		if !flags.Interior() {
			return true
		}
		var q Prefetchability
		switch L := float64(length); {
		case L <= a:
			q.ShortCount = count
		case L <= b:
			q.MidCount = count
			if flags&interval.NLPrefetchable != 0 {
				q.MidNL = count
			} else if flags&interval.StridePrefetchable != 0 {
				q.MidStride = count
			}
		default:
			q.LongCount = count
			if flags&interval.NLPrefetchable != 0 {
				q.LongNL = count
			} else if flags&interval.StridePrefetchable != 0 {
				q.LongStride = count
			}
		}
		out.Add(q)
		return true
	})
	return out
}

// TestAnalyzeMatchesWalk pins Analyze's prefix differences to the bucket
// walk on random distributions, with boundaries on, between and beyond
// bucket lengths and in reversed order, and pins Add to Analyze of the
// merged distribution.
func TestAnalyzeMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	random := func() *interval.Distribution {
		d := interval.NewDistribution(8, 1<<30)
		for i := 0; i < 2000; i++ {
			d.Add(uint64(rng.ExpFloat64()*2000)+1, interval.Flags(rng.Intn(64)), uint64(rng.Intn(3)+1))
		}
		return d
	}
	for _, cuts := range [][2]float64{{6, 1057}, {6.5, 1057.5}, {0, 1e18}, {100, 100}, {1057, 6}, {8192, 20000}} {
		x, y := random(), random()
		got := Analyze(interval.NewAggregates(x), cuts[0], cuts[1])
		if want := analyzeWalk(x, cuts[0], cuts[1]); got != want {
			t.Fatalf("cuts %v: Analyze %+v, walk %+v", cuts, got, want)
		}
		got.Add(Analyze(interval.NewAggregates(y), cuts[0], cuts[1]))
		if err := x.Merge(y); err != nil {
			t.Fatal(err)
		}
		if want := analyzeWalk(x, cuts[0], cuts[1]); got != want {
			t.Fatalf("cuts %v: summed %+v, merged walk %+v", cuts, got, want)
		}
	}
}

// BenchmarkClassifierObserve times ClassifyObserve, the fused call the
// streaming collector makes per event; every fourth access closes an
// interval opened 64 cycles before it.
func BenchmarkClassifierObserve(b *testing.B) {
	c := MustNewClassifier(ForDCache())
	for i := 0; i < b.N; i++ {
		cycle := uint64(i) + 64
		c.ClassifyObserve(cycle, uint64(i%100000), uint64(i%512), trace.Load, cycle-64, i%4 == 0)
	}
}

// TestClassifyObserveAllocationFree is the dynamic twin of the
// //lint:hotpath marker: once the line pages and stride entries a stream
// touches exist, classifying more of it allocates nothing.
func TestClassifyObserveAllocationFree(t *testing.T) {
	c := MustNewClassifier(ForDCache())
	var cycle uint64
	pass := func() {
		for i := uint64(0); i < 4096; i++ {
			cycle++
			c.ClassifyObserve(cycle, i%1024, i%64, trace.Load, cycle-i%7, i%3 == 0)
		}
	}
	pass() // warm-up: first touch of every page and stride entry
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Errorf("ClassifyObserve: %v allocs/run, want 0", allocs)
	}
}
