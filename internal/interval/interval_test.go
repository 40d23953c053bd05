package interval

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"

	"leakbound/internal/sim/trace"
)

func mkEvent(cycle uint64, frame uint32) trace.Event {
	return trace.Event{Cycle: cycle, Frame: frame, Cache: trace.L1D, Kind: trace.Load}
}

func TestFlags(t *testing.T) {
	if !NLPrefetchable.Prefetchable() || !StridePrefetchable.Prefetchable() {
		t.Error("prefetch flags not prefetchable")
	}
	if Leading.Prefetchable() || Flags(0).Prefetchable() {
		t.Error("non-prefetch flags prefetchable")
	}
	if !Flags(0).Interior() || Leading.Interior() || Trailing.Interior() || Untouched.Interior() {
		t.Error("Interior() wrong")
	}
	if Flags(0).String() != "interior" {
		t.Errorf("zero flags = %q", Flags(0).String())
	}
	if got := (NLPrefetchable | StridePrefetchable).String(); got != "nl|stride" {
		t.Errorf("flags string = %q", got)
	}
	if got := Untouched.String(); got != "leading|trailing" {
		t.Errorf("untouched string = %q", got)
	}
}

func TestFlagsMarshalJSON(t *testing.T) {
	for _, c := range []struct {
		f    Flags
		want string
	}{
		{0, `"interior"`},
		{NLPrefetchable | Dirty, `"nl|dirty"`},
		{Untouched, `"leading|trailing"`},
	} {
		b, err := json.Marshal(c.f)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", c.f, err)
		}
		if string(b) != c.want {
			t.Errorf("Marshal(%v) = %s, want %s", c.f, b, c.want)
		}
	}
}

func TestDistributionAdd(t *testing.T) {
	d := NewDistribution(4, 100)
	d.Add(5, 0, 3)
	d.Add(10000, Leading, 2) // sparse path
	d.Add(0, 0, 7)           // zero-length ignored
	d.Add(5, 0, 0)           // zero count ignored
	if d.NumIntervals() != 5 {
		t.Errorf("NumIntervals = %d, want 5", d.NumIntervals())
	}
	if d.Mass() != 5*3+10000*2 {
		t.Errorf("Mass = %d", d.Mass())
	}
}

func TestDistributionEachOrdered(t *testing.T) {
	d := NewDistribution(1, 1)
	d.Add(9000, 0, 1)
	d.Add(3, Leading, 2)
	d.Add(8500, NLPrefetchable, 1)
	d.Add(3, 0, 1)
	var got []Key
	d.Each(func(length uint64, flags Flags, count uint64) bool {
		got = append(got, Key{length, flags})
		return true
	})
	want := []Key{{3, 0}, {3, Leading}, {8500, NLPrefetchable}, {9000, 0}}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDistributionEachEarlyStop(t *testing.T) {
	d := NewDistribution(1, 1)
	d.Add(1, 0, 1)
	d.Add(2, 0, 1)
	n := 0
	d.Each(func(length uint64, flags Flags, count uint64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d buckets", n)
	}
}

func TestDistributionCountAndMass(t *testing.T) {
	d := NewDistribution(1, 1)
	d.Add(5, 0, 10)
	d.Add(100, NLPrefetchable, 4)
	d.Add(20000, Trailing, 1)
	long := d.Count(func(l uint64, f Flags) bool { return l > 50 })
	if long != 5 {
		t.Errorf("Count(long) = %d, want 5", long)
	}
	m := d.MassWhere(func(l uint64, f Flags) bool { return f.Prefetchable() })
	if m != 400 {
		t.Errorf("MassWhere(prefetchable) = %d, want 400", m)
	}
}

func TestDistributionMerge(t *testing.T) {
	a := NewDistribution(2, 50)
	a.Add(5, 0, 1)
	b := NewDistribution(3, 80)
	b.Add(5, 0, 2)
	b.Add(9999, Leading, 1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.NumFrames != 5 || a.TotalCycles != 80 {
		t.Errorf("merged metadata: frames=%d cycles=%d", a.NumFrames, a.TotalCycles)
	}
	if a.NumIntervals() != 4 || a.Mass() != 5*3+9999 {
		t.Errorf("merged contents: n=%d mass=%d", a.NumIntervals(), a.Mass())
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
}

func TestCollectorValidation(t *testing.T) {
	if _, err := NewCollector(trace.CacheID(9), 4, nil); err == nil {
		t.Error("bad cache id accepted")
	}
	if _, err := NewCollector(trace.L1D, 0, nil); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestCollectorBasicTimeline(t *testing.T) {
	c, err := NewCollector(trace.L1D, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 0 accessed at cycles 10, 30, 31; frame 1 never accessed.
	for _, cy := range []uint64{10, 30, 31} {
		if err := c.Add(mkEvent(cy, 0)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.Finish(100)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		l uint64
		f Flags
		n uint64
	}
	var got []rec
	d.Each(func(l uint64, f Flags, n uint64) bool {
		got = append(got, rec{l, f, n})
		return true
	})
	want := []rec{
		{1, 0, 1},           // 30 -> 31
		{10, Leading, 1},    // 0 -> 10
		{20, 0, 1},          // 10 -> 30
		{69, Trailing, 1},   // 31 -> 100
		{100, Untouched, 1}, // frame 1
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// Conservation: total mass = frames * cycles.
	if d.Mass() != 2*100 {
		t.Errorf("mass = %d, want 200", d.Mass())
	}
}

func TestCollectorFirstAccessAtZero(t *testing.T) {
	c, _ := NewCollector(trace.L1D, 1, nil)
	if err := c.Add(mkEvent(0, 0)); err != nil {
		t.Fatal(err)
	}
	d, err := c.Finish(50)
	if err != nil {
		t.Fatal(err)
	}
	// No leading gap; one trailing gap of 50.
	if d.NumIntervals() != 1 || d.Mass() != 50 {
		t.Errorf("n=%d mass=%d", d.NumIntervals(), d.Mass())
	}
}

func TestCollectorSimultaneousAccesses(t *testing.T) {
	c, _ := NewCollector(trace.L1D, 1, nil)
	c.Add(mkEvent(5, 0))
	c.Add(mkEvent(5, 0)) // zero-length interval: skipped
	c.Add(mkEvent(9, 0))
	d, err := c.Finish(10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mass() != 10 {
		t.Errorf("mass = %d, want 10 (conservation with simultaneous events)", d.Mass())
	}
}

func TestCollectorErrors(t *testing.T) {
	c, _ := NewCollector(trace.L1D, 2, nil)
	if err := c.Add(mkEvent(1, 5)); err == nil {
		t.Error("out-of-range frame accepted")
	}
	c.Add(mkEvent(10, 0))
	if err := c.Add(mkEvent(5, 0)); err == nil {
		t.Error("time travel accepted")
	}
	if _, err := c.Finish(5); err == nil {
		t.Error("horizon before last event accepted")
	}
	if _, err := c.Finish(20); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(mkEvent(30, 0)); err == nil {
		t.Error("Add after Finish accepted")
	}
	if _, err := c.Finish(30); err == nil {
		t.Error("double Finish accepted")
	}
}

func TestCollectorIgnoresOtherCaches(t *testing.T) {
	c, _ := NewCollector(trace.L1D, 1, nil)
	e := mkEvent(5, 0)
	e.Cache = trace.L1I
	if err := c.Add(e); err != nil {
		t.Fatal(err)
	}
	d, _ := c.Finish(10)
	// Only the untouched record.
	if d.NumIntervals() != 1 {
		t.Errorf("foreign event recorded: %d intervals", d.NumIntervals())
	}
}

// recordingClassifier checks the Classify-before-Observe contract.
type recordingClassifier struct {
	classified []uint64 // start cycles passed to Classify
	observed   int
	lastWasObs bool
	violation  bool
}

func (r *recordingClassifier) Classify(e trace.Event, start uint64) Flags {
	r.classified = append(r.classified, start)
	r.lastWasObs = false
	return NLPrefetchable
}

func (r *recordingClassifier) Observe(e trace.Event) {
	r.observed++
	r.lastWasObs = true
}

func TestCollectorClassifierContract(t *testing.T) {
	rc := &recordingClassifier{}
	c, _ := NewCollector(trace.L1D, 1, rc)
	c.Add(mkEvent(10, 0))
	c.Add(mkEvent(50, 0))
	d, err := c.Finish(60)
	if err != nil {
		t.Fatal(err)
	}
	if rc.observed != 2 {
		t.Errorf("Observe called %d times, want 2", rc.observed)
	}
	if len(rc.classified) != 1 || rc.classified[0] != 10 {
		t.Errorf("Classify calls = %v, want [10]", rc.classified)
	}
	// The interior interval must carry the classifier's flag.
	n := d.Count(func(l uint64, f Flags) bool { return f == NLPrefetchable })
	if n != 1 {
		t.Errorf("flagged intervals = %d, want 1", n)
	}
}

// TestConservationProperty: for random event streams, per-frame mass always
// telescopes to frames * totalCycles.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, framesRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		frames := uint32(framesRaw)%16 + 1
		n := int(nRaw) % 200
		c, err := NewCollector(trace.L1D, frames, nil)
		if err != nil {
			return false
		}
		cycle := uint64(0)
		for i := 0; i < n; i++ {
			cycle += uint64(rng.Intn(50))
			if err := c.Add(mkEvent(cycle, uint32(rng.Intn(int(frames))))); err != nil {
				return false
			}
		}
		total := cycle + uint64(rng.Intn(100)) + 1
		d, err := c.Finish(total)
		if err != nil {
			return false
		}
		return d.Mass() == uint64(frames)*total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestChunkingInvariance: splitting a stream across two collectors of the
// same shape is NOT the invariant (state is per-collector); instead verify
// that processing the same stream twice yields identical distributions.
func TestDeterministicCollection(t *testing.T) {
	build := func() *Distribution {
		rng := rand.New(rand.NewSource(99))
		c, _ := NewCollector(trace.L1D, 8, nil)
		cycle := uint64(0)
		for i := 0; i < 500; i++ {
			cycle += uint64(rng.Intn(20))
			c.Add(mkEvent(cycle, uint32(rng.Intn(8))))
		}
		d, _ := c.Finish(cycle + 10)
		return d
	}
	a, b := build(), build()
	if a.Mass() != b.Mass() || a.NumIntervals() != b.NumIntervals() {
		t.Fatal("non-deterministic collection")
	}
	var bufA, bufB []Key
	a.Each(func(l uint64, f Flags, n uint64) bool { bufA = append(bufA, Key{l, f}); return true })
	b.Each(func(l uint64, f Flags, n uint64) bool { bufB = append(bufB, Key{l, f}); return true })
	if len(bufA) != len(bufB) {
		t.Fatal("bucket sets differ")
	}
	for i := range bufA {
		if bufA[i] != bufB[i] {
			t.Fatal("bucket order differs")
		}
	}
}

// randomStream builds a valid (non-decreasing cycle) event stream for one
// cache from a seeded RNG, plus the horizon that closes it.
func randomStream(rng *rand.Rand, numFrames uint32, n int) ([]trace.Event, uint64) {
	events := make([]trace.Event, 0, n)
	var cycle uint64
	for i := 0; i < n; i++ {
		cycle += uint64(rng.Intn(50)) // may stay equal: superscalar same-cycle accesses
		events = append(events, trace.Event{
			Cycle:    cycle,
			LineAddr: uint64(rng.Intn(64)),
			Frame:    uint32(rng.Intn(int(numFrames))),
			PC:       uint64(rng.Intn(32)) * 4,
			Cache:    trace.L1D,
			Kind:     trace.Kind(rng.Intn(3)),
			Miss:     rng.Intn(4) == 0,
		})
	}
	return events, cycle + uint64(rng.Intn(100)) + 1
}

// collectSequential runs the plain Collector over the stream.
func collectSequential(t *testing.T, events []trace.Event, numFrames uint32, horizon uint64) *Distribution {
	t.Helper()
	col, err := NewCollector(trace.L1D, numFrames, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := col.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	d, err := col.Finish(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMergePropertySharding is the Merge property test: merging an
// arbitrary per-frame sharding of a random event stream equals the
// unsharded distribution, and the conservation invariant (summed lengths
// == frames x cycles) holds on both sides of the merge.
func TestMergePropertySharding(t *testing.T) {
	prop := func(seed int64, framesRaw uint8, eventsRaw uint16, shardsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numFrames := uint32(framesRaw%16) + 1
		n := int(eventsRaw % 2000)
		shards := int(shardsRaw%7) + 1
		events, horizon := randomStream(rng, numFrames, n)

		whole := collectSequential(t, events, numFrames, horizon)

		// Arbitrary per-frame sharding: assign each frame to a random part,
		// collect each part with its own sequential Collector (frames
		// remapped to dense local indices), then Merge.
		owner := make([]int, numFrames)
		local := make([]uint32, numFrames)
		counts := make([]uint32, shards)
		for f := range owner {
			p := rng.Intn(shards)
			owner[f] = p
			local[f] = counts[p]
			counts[p]++
		}
		merged := NewDistribution(0, horizon)
		for p := 0; p < shards; p++ {
			if counts[p] == 0 {
				continue
			}
			col, err := NewCollector(trace.L1D, counts[p], nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if owner[e.Frame] != p {
					continue
				}
				le := e
				le.Frame = local[e.Frame]
				if err := col.Add(le); err != nil {
					t.Fatal(err)
				}
			}
			d, err := col.Finish(horizon)
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(d); err != nil {
				t.Fatal(err)
			}
		}

		if !merged.Equal(whole) {
			t.Logf("seed %d: merged != whole (frames %d, events %d, shards %d)", seed, numFrames, n, shards)
			return false
		}
		want := uint64(numFrames) * horizon
		if whole.Mass() != want || merged.Mass() != want {
			t.Logf("seed %d: conservation broken: whole %d, merged %d, want %d", seed, whole.Mass(), merged.Mass(), want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCollectorAdd times AddCols, the per-event call the streaming
// sink makes.
func BenchmarkCollectorAdd(b *testing.B) {
	c, _ := NewCollector(trace.L1D, 1024, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.AddCols(uint64(i), 0, 0, uint32(i%1024), trace.L1D, trace.Load, false)
	}
}

func BenchmarkDistributionEach(b *testing.B) {
	d := NewDistribution(1024, 1<<20)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		d.Add(uint64(rng.Intn(20000)+1), Flags(rng.Intn(4)), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total uint64
		d.Each(func(l uint64, f Flags, n uint64) bool {
			total += n
			return true
		})
	}
}

// TestCollectorAddColsAllocationFree is the dynamic twin of AddCols'
// //lint:hotpath entry marker: once the buckets a stream lands in exist,
// collecting more of it allocates nothing.
func TestCollectorAddColsAllocationFree(t *testing.T) {
	c, err := NewCollector(trace.L1D, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cycle uint64
	pass := func() {
		for i := 0; i < 1024; i++ {
			cycle++
			kind := trace.Load
			if i%5 == 0 {
				kind = trace.Store
			}
			if err := c.AddCols(cycle, uint64(i), 0, uint32(cycle%64), trace.L1D, kind, i%7 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm-up: leading gaps and the first bucket of each flags class
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Errorf("AddCols: %v allocs/run, want 0", allocs)
	}
}
