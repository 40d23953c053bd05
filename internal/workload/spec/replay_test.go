package spec

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/leakage"
	"leakbound/internal/power"
	"leakbound/internal/prefetch"
	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/cpu"
	"leakbound/internal/sim/stream"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	s, err := Parse(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Compile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Record(&buf, w)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recorded zero instructions")
	}
	r, err := ReadReplay(bytes.NewReader(buf.Bytes()), "replayed")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(r.Len()) != n {
		t.Fatalf("replay has %d instrs, recorded %d", r.Len(), n)
	}
	orig := collect(w, 0)
	played := collect(r, 0)
	if !reflect.DeepEqual(orig, played) {
		t.Fatal("replayed stream differs from the original")
	}
	// The scenario shape: name, digest, scale-independence.
	if r.ScenarioName() != "replayed" {
		t.Errorf("ScenarioName = %q", r.ScenarioName())
	}
	if len(r.ScenarioDigest()) != 64 {
		t.Errorf("digest %q is not hex sha256", r.ScenarioDigest())
	}
	for _, scale := range []float64{0.25, 1, 4} {
		rw, err := r.Workload(scale)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(collect(rw, 0)); uint64(got) != n {
			t.Errorf("scale %g changed replay length to %d", scale, got)
		}
	}
}

func TestReadReplayRejectsCacheEvents(t *testing.T) {
	var st trace.Stream
	if err := st.Append(trace.Event{Cycle: 0, Cache: trace.L1D, Kind: trace.Load}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteTagged(&buf, trace.CacheEvents, &st); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReplay(bytes.NewReader(buf.Bytes()), "x"); err == nil {
		t.Fatal("cache-event trace accepted as replay")
	}
	// v1 files are cache events by definition.
	buf.Reset()
	if err := trace.Write(&buf, &st); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReplay(bytes.NewReader(buf.Bytes()), "x"); err == nil {
		t.Fatal("v1 trace accepted as replay")
	}
	if _, err := ReadReplay(bytes.NewReader(nil), "Bad Name!"); err == nil {
		t.Fatal("invalid replay name accepted")
	}
}

func TestReplayFile(t *testing.T) {
	s, err := Parse(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Compile(0.25)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "my-recording.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Record(f, w); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.ScenarioName() != "my-recording" {
		t.Errorf("name from file = %q", r.ScenarioName())
	}
	if _, err := ReplayFile(filepath.Join(dir, "missing.trc")); err == nil {
		t.Error("missing file accepted")
	}
}

// simulateBoth runs a workload through the paper's hierarchy with interval
// collection on both L1 sides, exactly as the experiment suite does, and
// returns the serialized distributions (byte comparison catches any drift,
// including flags and tails).
func simulateBoth(t *testing.T, w workload.Workload) (iRaw, dRaw []byte, iDist, dDist *interval.Distribution) {
	t.Helper()
	hier, err := cache.NewHierarchy(cache.AlphaLike())
	if err != nil {
		t.Fatal(err)
	}
	iClass, err := prefetch.NewClassifier(prefetch.ForICache())
	if err != nil {
		t.Fatal(err)
	}
	dClass, err := prefetch.NewClassifier(prefetch.ForDCache())
	if err != nil {
		t.Fatal(err)
	}
	iCol, err := interval.NewCollector(trace.L1I, uint32(hier.L1I().Config().NumLines()), iClass)
	if err != nil {
		t.Fatal(err)
	}
	dCol, err := interval.NewCollector(trace.L1D, uint32(hier.L1D().Config().NumLines()), dClass)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.RunStreamContext(context.Background(), w, hier, cpu.DefaultConfig(), func(b *stream.Batch) error {
		for i, n := 0, b.Len(); i < n; i++ {
			e := b.Event(i)
			switch e.Cache {
			case trace.L1I:
				if err := iCol.Add(e); err != nil {
					return err
				}
			case trace.L1D:
				if err := dCol.Add(e); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	iDist, err = iCol.Finish(res.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	dDist, err = dCol.Finish(res.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	var ib, db bytes.Buffer
	if err := interval.WriteDistribution(&ib, iDist); err != nil {
		t.Fatal(err)
	}
	if err := interval.WriteDistribution(&db, dDist); err != nil {
		t.Fatal(err)
	}
	return ib.Bytes(), db.Bytes(), iDist, dDist
}

// TestRecordReplayEquivalence is the pinned guarantee of the trace-replay
// path: a spec-compiled workload recorded through the trace codec and
// replayed must produce byte-identical interval distributions and
// bit-identical leakage results. `make race` runs this under the race
// detector.
// recordReplay compiles validSpec at scale, records it, and reads the
// recording back.
func recordReplay(t *testing.T, scale float64) (workload.Workload, *Replay) {
	t.Helper()
	s, err := Parse(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Compile(scale)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Record(&buf, w); err != nil {
		t.Fatal(err)
	}
	r, err := ReadReplay(bytes.NewReader(buf.Bytes()), "replayed")
	if err != nil {
		t.Fatal(err)
	}
	return w, r
}

func TestRecordReplayEquivalence(t *testing.T) {
	w, r := recordReplay(t, 0.5)
	iOrig, dOrig, iDistO, dDistO := simulateBoth(t, w)
	iPlay, dPlay, iDistP, dDistP := simulateBoth(t, r)
	if !bytes.Equal(iOrig, iPlay) {
		t.Error("I-cache distributions differ between original and replay")
	}
	if !bytes.Equal(dOrig, dPlay) {
		t.Error("D-cache distributions differ between original and replay")
	}

	tech := power.Default()
	for _, pol := range []leakage.Policy{&leakage.OPTHybrid{}, &leakage.OPTDrowsy{}} {
		for _, side := range []struct {
			name string
			o, p *interval.Distribution
		}{{"icache", iDistO, iDistP}, {"dcache", dDistO, dDistP}} {
			evO, err := leakage.Evaluate(tech, side.o, pol)
			if err != nil {
				t.Fatal(err)
			}
			evP, err := leakage.Evaluate(tech, side.p, pol)
			if err != nil {
				t.Fatal(err)
			}
			if evO != evP {
				t.Errorf("%s/%s: leakage evaluation differs: %+v vs %+v",
					pol.Name(), side.name, evO, evP)
			}
		}
	}
}

// TestReplayEmitAllocationFree is the dynamic twin of Emit's
// //lint:hotpath marker: replaying a recording allocates nothing.
func TestReplayEmitAllocationFree(t *testing.T) {
	_, r := recordReplay(t, 0.05)
	var n int
	yield := func(workload.Instr) bool { n++; return true }
	if allocs := testing.AllocsPerRun(10, func() { r.Emit(yield) }); allocs != 0 {
		t.Errorf("Emit: %v allocs/run, want 0", allocs)
	}
	if n != 11*r.Len() {
		t.Errorf("yielded %d instrs, want %d", n, 11*r.Len())
	}
}
