package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCacheIDString(t *testing.T) {
	cases := map[CacheID]string{L1I: "L1I", L1D: "L1D", L2: "L2", CacheID(9): "CacheID(9)"}
	for id, want := range cases {
		if got := id.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", id, got, want)
		}
	}
	if !L1I.Valid() || !L2.Valid() || CacheID(3).Valid() {
		t.Error("CacheID.Valid wrong")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Fetch: "fetch", Load: "load", Store: "store", Kind(7): "Kind(7)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", k, got, want)
		}
	}
	if !Fetch.Valid() || Kind(3).Valid() {
		t.Error("Kind.Valid wrong")
	}
}

func TestEventValidate(t *testing.T) {
	if err := (Event{Cache: L1D, Kind: Load}).Validate(); err != nil {
		t.Errorf("valid event rejected: %v", err)
	}
	if err := (Event{Cache: CacheID(5)}).Validate(); err == nil {
		t.Error("bad cache accepted")
	}
	if err := (Event{Kind: Kind(5)}).Validate(); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestStreamValidate(t *testing.T) {
	s := &Stream{
		Events:      []Event{{Cycle: 5, Cache: L1I}, {Cycle: 3, Cache: L1I}},
		TotalCycles: 10,
	}
	if err := s.Validate(); err == nil {
		t.Error("out-of-order stream validated")
	}
	s = &Stream{Events: []Event{{Cycle: 15, Cache: L1I}}, TotalCycles: 10}
	if err := s.Validate(); err == nil {
		t.Error("event beyond horizon validated")
	}
	s = &Stream{Events: []Event{{Cycle: 1, Cache: L1I}}, TotalCycles: 10}
	if err := s.Validate(); err != nil {
		t.Errorf("good stream rejected: %v", err)
	}
}

// writeStream encodes a complete stream through a Writer.
func writeStream(w io.Writer, content Content, s *Stream) error {
	tw, err := NewWriter(w, content, s.NumFrames)
	if err != nil {
		return err
	}
	for i := range s.Events {
		if err := tw.Append(s.Events[i]); err != nil {
			return err
		}
	}
	tw.SetTotalCycles(s.TotalCycles)
	return tw.Close()
}

// randomStream returns n random events in cycle order; the horizon is the
// last event's cycle + 1.
func randomStream(rng *rand.Rand, n int) *Stream {
	s := &Stream{NumFrames: uint32(rng.Intn(4096) + 1)}
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		cycle += uint64(rng.Intn(100))
		s.Events = append(s.Events, Event{
			Cycle:    cycle,
			LineAddr: rng.Uint64() >> 6,
			Frame:    uint32(rng.Intn(2048)),
			PC:       rng.Uint64() >> 20,
			Cache:    CacheID(rng.Intn(3)),
			Kind:     Kind(rng.Intn(3)),
			Miss:     rng.Intn(4) == 0,
		})
		s.TotalCycles = cycle + 1
	}
	return s
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 17, 1000} {
		s := randomStream(rng, n)
		var buf bytes.Buffer
		if err := writeStream(&buf, CacheEvents, s); err != nil {
			t.Fatalf("write n=%d: %v", n, err)
		}
		tg, err := ReadTagged(&buf)
		if err != nil {
			t.Fatalf("read n=%d: %v", n, err)
		}
		got := tg.Stream
		if tg.Content != CacheEvents || got.TotalCycles != s.TotalCycles || got.NumFrames != s.NumFrames {
			t.Errorf("n=%d metadata mismatch", n)
		}
		if len(got.Events) != len(s.Events) {
			t.Fatalf("n=%d event count %d != %d", n, len(got.Events), len(s.Events))
		}
		for i := range s.Events {
			if !reflect.DeepEqual(got.Events[i], s.Events[i]) {
				t.Fatalf("n=%d event %d: got %+v want %+v", n, i, got.Events[i], s.Events[i])
			}
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomStream(rng, int(nRaw))
		var buf bytes.Buffer
		if err := writeStream(&buf, CacheEvents, s); err != nil {
			return false
		}
		tg, err := ReadTagged(&buf)
		if err != nil {
			return false
		}
		got := tg.Stream
		return reflect.DeepEqual(got.Events, s.Events) || (len(got.Events) == 0 && len(s.Events) == 0)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadTagged(strings.NewReader("not a trace at all...")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTagged(strings.NewReader("LKBTRC02")); err == nil {
		t.Error("truncated header accepted")
	}
	// valid header and an event tag, but no payload
	truncated := append(append([]byte{}, magic[:]...), byte(CacheEvents), 0, 0, 0, 0, tagEvent)
	if _, err := ReadTagged(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestReadRejectsV1 pins that the retired "LKBTRC01" container is refused:
// a complete, empty v1 file (magic plus a zeroed 20-byte header) fails
// with the bad-magic error.
func TestReadRejectsV1(t *testing.T) {
	v1 := append([]byte("LKBTRC01"), make([]byte, 20)...)
	_, err := ReadTagged(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("v1 input: got %v, want the bad-magic error", err)
	}
}

func BenchmarkCodecWrite(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s := randomStream(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := writeStream(&buf, CacheEvents, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRead(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s := randomStream(rng, 10000)
	var buf bytes.Buffer
	if err := writeStream(&buf, CacheEvents, s); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTagged(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
