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

// observe feeds e to c as an access that closes no interval.
func observe(c *Classifier, e trace.Event) {
	c.ClassifyObserve(e.Cycle, e.LineAddr, e.PC, e.Kind, 0, false)
}

// classify feeds e to c as the access closing an interval opened at start
// and returns the interval's flags.
func classify(c *Classifier, e trace.Event, start uint64) interval.Flags {
	return c.ClassifyObserve(e.Cycle, e.LineAddr, e.PC, e.Kind, start, true)
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
	observe(c, iEvent(10, 100))
	observe(c, iEvent(50, 99))
	flags := classify(c, iEvent(80, 100), 10)
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
	observe(c, iEvent(5, 99))
	observe(c, iEvent(10, 100))
	flags := classify(c, iEvent(80, 100), 10)
	if flags != 0 {
		t.Errorf("stale predecessor flagged: %v", flags)
	}
	// Predecessor at exactly the closing cycle: too late to prefetch.
	c2 := MustNewClassifier(ForICache())
	observe(c2, iEvent(10, 200))
	observe(c2, iEvent(80, 199))
	if classify(c2, iEvent(80, 200), 10) != 0 {
		t.Error("same-cycle predecessor flagged")
	}
}

func TestNextLineAtLineZero(t *testing.T) {
	c := MustNewClassifier(ForICache())
	observe(c, iEvent(10, 0))
	// Line 0 has no predecessor; must not underflow.
	if got := classify(c, iEvent(80, 0), 10); got != 0 {
		t.Errorf("line 0 flagged: %v", got)
	}
}

func TestStrideDetection(t *testing.T) {
	c := MustNewClassifier(ForDCache())
	const pc = 0x400100
	// A load marching by 128 bytes (2 lines): lines 10, 12, 14, 16...
	// After two equal strides the predictor must flag the next.
	observe(c, dEvent(10, 10, pc))
	observe(c, dEvent(20, 12, pc)) // stride = 2 lines (first observation)
	observe(c, dEvent(30, 14, pc)) // stride repeated: confirmed
	// Interval of line 16 opened at cycle 5; closing access at cycle 40 by
	// the same load, predicted by the cycle-30 access (inside interval).
	flags := classify(c, dEvent(40, 16, pc), 5)
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
	observe(c, dEvent(10, 10, pc))
	observe(c, dEvent(20, 12, pc)) // one stride observation only
	flags := classify(c, dEvent(30, 14, pc), 5)
	if flags&interval.StridePrefetchable != 0 {
		t.Error("unconfirmed stride flagged (paper: same stride at least twice)")
	}
}

func TestStrideBrokenPattern(t *testing.T) {
	c := MustNewClassifier(ForDCache())
	const pc = 0x400100
	observe(c, dEvent(10, 10, pc))
	observe(c, dEvent(20, 12, pc))
	observe(c, dEvent(30, 14, pc)) // confirmed, stride 2
	observe(c, dEvent(40, 99, pc)) // pattern broken
	flags := classify(c, dEvent(50, 101, pc), 5)
	if flags&interval.StridePrefetchable != 0 {
		t.Error("broken stride still flagged")
	}
}

func TestStrideIgnoresFetches(t *testing.T) {
	c := MustNewClassifier(Config{Stride: true})
	e := iEvent(10, 10)
	observe(c, e)
	observe(c, iEvent(20, 12))
	observe(c, iEvent(30, 14))
	if got := classify(c, iEvent(40, 16), 5); got != 0 {
		t.Errorf("fetch events drove stride predictor: %v", got)
	}
}

func TestStrideZeroStrideNeverFlags(t *testing.T) {
	c := MustNewClassifier(ForDCache())
	const pc = 0x400200
	for cy := uint64(10); cy <= 50; cy += 10 {
		observe(c, dEvent(cy, 7, pc))
	}
	if got := classify(c, dEvent(60, 7, pc), 5); got&interval.StridePrefetchable != 0 {
		t.Error("zero stride flagged (same line repeat is not a stride prefetch)")
	}
}

func TestNLPriorityOverStride(t *testing.T) {
	// When both predictors would fire, the interval is counted as NL (the
	// paper's P-NL and P-stride are disjoint shares).
	c := MustNewClassifier(ForDCache())
	const pc = 0x400300
	observe(c, dEvent(10, 20, pc))
	observe(c, dEvent(20, 21, pc)) // stride 1 = next line too
	observe(c, dEvent(30, 22, pc))
	flags := classify(c, dEvent(40, 23, pc), 25)
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
	for _, e := range []trace.Event{mk(10, 100, 0), mk(50, 99, 1), mk(90, 100, 0)} {
		// The third access closes an 80-cycle interval; NL-prefetchable.
		if err := col.AddCols(e.Cycle, e.LineAddr, e.PC, e.Frame, e.Cache, e.Kind, e.Miss); err != nil {
			t.Fatal(err)
		}
	}
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
// combined distribution.
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
		y.Each(func(length uint64, flags interval.Flags, count uint64) bool {
			x.Add(length, flags, count)
			return true
		})
		if want := analyzeWalk(x, cuts[0], cuts[1]); got != want {
			t.Fatalf("cuts %v: summed %+v, combined walk %+v", cuts, got, want)
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

// refClassifier is the reference for ClassifyObserve: the predictors in
// split form, on plain Go maps. classify reads the tables without
// changing them and observe updates them; ClassifyObserve must equal
// classify (when closing) followed by observe.
type refClassifier struct {
	cfg        Config
	lastAccess map[uint64]uint64 // line -> cycle of its latest access
	strides    map[uint64]*refStride
	predLine   uint64 // +1 encoded, as Classifier.predLine
	nl, stride uint64
}

type refStride struct {
	addr, cycle uint64 // the load's latest line-aligned address and its cycle
	delta       int64  // latest address difference
	repeated    bool   // delta equals the difference before it
}

func newRefClassifier(cfg Config) *refClassifier {
	return &refClassifier{cfg: cfg, lastAccess: map[uint64]uint64{}, strides: map[uint64]*refStride{}}
}

// inside reports whether cycle c falls strictly inside the interval
// (start, end).
func inside(c, start, end uint64) bool { return start < c && c < end }

func (r *refClassifier) classify(cycle, lineAddr, pc uint64, kind trace.Kind, start uint64) interval.Flags {
	if r.cfg.NextLine && lineAddr > 0 {
		if c, ok := r.lastAccess[lineAddr-1]; ok && inside(c, start, cycle) {
			r.nl++
			return interval.NLPrefetchable
		}
	}
	if !r.cfg.Stride || kind == trace.Fetch {
		return 0
	}
	s, ok := r.strides[pc]
	if ok && s.repeated && s.delta != 0 && uint64(int64(s.addr)+s.delta)/64 == lineAddr && inside(s.cycle, start, cycle) {
		r.stride++
		return interval.StridePrefetchable
	}
	return 0
}

func (r *refClassifier) observe(cycle, lineAddr, pc uint64, kind trace.Kind) {
	if r.cfg.NextLine {
		r.lastAccess[lineAddr] = cycle
	}
	r.predLine = 0
	if !r.cfg.Stride || kind == trace.Fetch {
		return
	}
	addr := lineAddr * 64
	s, ok := r.strides[pc]
	if !ok {
		r.strides[pc] = &refStride{addr: addr, cycle: cycle}
		return
	}
	delta := int64(addr) - int64(s.addr)
	s.repeated = delta == s.delta && delta != 0
	s.addr, s.cycle, s.delta = addr, cycle, delta
	if s.repeated {
		r.predLine = uint64(int64(addr)+delta)/64 + 1
	}
}

// refAccess is one ClassifyObserve call.
type refAccess struct {
	cycle, line, pc uint64
	kind            trace.Kind
	start           uint64
	closing         bool
}

// checkAgainstReference feeds the calls to a Classifier and to the
// reference, and fails at the first call after which the flags,
// predLine or Stats differ.
func checkAgainstReference(t *testing.T, cfg Config, calls []refAccess) {
	t.Helper()
	c, ref := MustNewClassifier(cfg), newRefClassifier(cfg)
	for i, a := range calls {
		got := c.ClassifyObserve(a.cycle, a.line, a.pc, a.kind, a.start, a.closing)
		var want interval.Flags
		if a.closing {
			want = ref.classify(a.cycle, a.line, a.pc, a.kind, a.start)
		}
		ref.observe(a.cycle, a.line, a.pc, a.kind)
		nl, st := c.Stats()
		if got != want || c.predLine != ref.predLine || nl != ref.nl || st != ref.stride {
			t.Fatalf("%+v call %d %+v: flags %v predLine %d stats %d/%d, reference %v %d %d/%d",
				cfg, i, a, got, c.predLine, nl, st, want, ref.predLine, ref.nl, ref.stride)
		}
	}
}

// randomAccesses draws a stream over a few nearby lines: loads and stores
// from PCs that walk a stride, repeat a line or jump at random, mixed with
// fetches, several accesses per cycle, and starts that are the line's
// previous access, the current cycle or any earlier cycle.
func randomAccesses(rng *rand.Rand, n int) []refAccess {
	type walker struct {
		line   uint64
		stride int64
	}
	walkers := make([]walker, 8)
	for i := range walkers {
		walkers[i] = walker{line: uint64(rng.Intn(64)), stride: int64(rng.Intn(5) - 2)}
	}
	last := map[uint64]uint64{} // line -> previous access cycle
	calls := make([]refAccess, 0, n)
	var cycle uint64
	for len(calls) < n {
		cycle += uint64(rng.Intn(3))
		pc := uint64(rng.Intn(len(walkers)))
		w := &walkers[pc]
		kind := trace.Kind(rng.Intn(3))
		switch rng.Intn(10) {
		case 0: // broken stride: jump
			w.line = uint64(rng.Intn(64))
		case 1: // new stride
			w.stride = int64(rng.Intn(5) - 2)
		}
		w.line = uint64(int64(w.line)+w.stride) % 64
		line := w.line
		if kind == trace.Fetch {
			line = uint64(rng.Intn(64))
		}
		prev, seen := last[line]
		a := refAccess{cycle: cycle, line: line, pc: pc * 4, kind: kind, closing: seen && prev < cycle && rng.Intn(5) > 0}
		switch rng.Intn(4) {
		case 0:
			a.start = cycle
		case 1:
			a.start = uint64(rng.Int63n(int64(cycle) + 1))
		default:
			a.start = prev
		}
		last[line] = cycle
		calls = append(calls, a)
	}
	return calls
}

// TestClassifyObserveMatchesReference pins ClassifyObserve to the
// split-form map reference on random streams, for every predictor
// configuration.
func TestClassifyObserveMatchesReference(t *testing.T) {
	for _, cfg := range []Config{ForICache(), ForDCache(), {Stride: true}} {
		for seed := int64(1); seed <= 20; seed++ {
			checkAgainstReference(t, cfg, randomAccesses(rand.New(rand.NewSource(seed)), 3000))
		}
	}
}

// FuzzClassifyObserve checks ClassifyObserve against the reference on
// arbitrary streams. Each 4-byte record is a cycle step (byte 0, low 2
// bits), a kind (bits 2-3) and a closing bit (bit 4); a signed line step
// (byte 1); a PC (byte 2, low 3 bits); and how far start lies back from
// the cycle (byte 3).
func FuzzClassifyObserve(f *testing.F) {
	f.Add([]byte{})
	// One PC striding by 2 lines, then the stride broken; a next-line
	// walk of fetches; accesses sharing a cycle.
	f.Add([]byte{
		0x11, 2, 1, 3, 0x11, 2, 1, 3, 0x11, 2, 1, 3, 0x11, 2, 1, 3, 0x11, 0x90, 1, 3, 0x11, 2, 1, 3,
		0x19, 1, 0, 1, 0x19, 1, 0, 1, 0x19, 0xff, 0, 1, 0x18, 1, 0, 0, 0x30, 1, 2, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var calls []refAccess
		var cycle, line uint64 = 0, 32
		for ; len(data) >= 4; data = data[4:] {
			cycle += uint64(data[0] & 3)
			line = uint64(int64(line)+int64(int8(data[1]))) % 128
			calls = append(calls, refAccess{
				cycle: cycle, line: line, pc: uint64(data[2] & 7),
				kind:    trace.Kind(data[0] >> 2 & 3 % 3),
				start:   cycle - min(uint64(data[3]), cycle),
				closing: data[0]&0x10 != 0,
			})
		}
		for _, cfg := range []Config{ForICache(), ForDCache(), {Stride: true}} {
			checkAgainstReference(t, cfg, calls)
		}
	})
}
