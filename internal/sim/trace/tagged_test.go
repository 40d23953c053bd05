package trace

import (
	"bytes"
	"strings"
	"testing"
)

func sampleStream() *Stream {
	s := &Stream{TotalCycles: 1000, NumFrames: 512}
	for i := uint64(0); i < 50; i++ {
		s.Events = append(s.Events, Event{
			Cycle:    i * 7,
			LineAddr: 0x1000 + i*3,
			Frame:    uint32(i % 16),
			PC:       0x40_0000 + i*4,
			Cache:    CacheID(i % 3),
			Kind:     Kind(i % 3),
			Miss:     i%5 == 0,
		})
	}
	return s
}

func TestTaggedRoundTrip(t *testing.T) {
	s := sampleStream()
	for _, content := range []Content{CacheEvents, InstrRecording} {
		var buf bytes.Buffer
		if err := writeStream(&buf, content, s); err != nil {
			t.Fatalf("%v: write: %v", content, err)
		}
		tg, err := ReadTagged(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: read: %v", content, err)
		}
		if tg.Content != content {
			t.Errorf("content = %v, want %v", tg.Content, content)
		}
		if tg.Stream.TotalCycles != s.TotalCycles || tg.Stream.NumFrames != s.NumFrames {
			t.Errorf("header mismatch: %+v", tg.Stream)
		}
		if len(tg.Stream.Events) != len(s.Events) {
			t.Fatalf("event count %d != %d", len(tg.Stream.Events), len(s.Events))
		}
		for i := range s.Events {
			if tg.Stream.Events[i] != s.Events[i] {
				t.Fatalf("event %d: %+v != %+v", i, tg.Stream.Events[i], s.Events[i])
			}
		}
	}
}

func TestWriterStreaming(t *testing.T) {
	s := sampleStream()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, InstrRecording, s.NumFrames)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Events {
		if err := w.Append(s.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.SetTotalCycles(s.TotalCycles)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("double close succeeded")
	}
	if err := w.Append(Event{}); err == nil {
		t.Error("append after close succeeded")
	}
	tg, err := ReadTagged(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tg.Stream.TotalCycles != s.TotalCycles || len(tg.Stream.Events) != len(s.Events) {
		t.Errorf("streamed write mismatch: %d events, %d cycles",
			len(tg.Stream.Events), tg.Stream.TotalCycles)
	}
}

func TestWriterDerivedHorizon(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, CacheEvents, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Event{Cycle: 41, Cache: L1D, Kind: Load}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tg, err := ReadTagged(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tg.Stream.TotalCycles != 42 {
		t.Errorf("derived horizon = %d, want 42", tg.Stream.TotalCycles)
	}
}

func TestWriterRejectsNonMonotonic(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, CacheEvents, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Event{Cycle: 10, Cache: L1D, Kind: Load}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Event{Cycle: 9, Cache: L1D, Kind: Load}); err == nil {
		t.Fatal("out-of-order append succeeded")
	}
}

func TestReadTaggedErrors(t *testing.T) {
	s := sampleStream()
	var good bytes.Buffer
	if err := writeStream(&good, CacheEvents, s); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("LKBTRC99xxxxxxxxxxxx"),
		"bad content":  append(append([]byte{}, magic[:]...), 0xFF, 0, 0, 0, 0),
		"truncated":    good.Bytes()[:good.Len()/2],
		"no footer":    good.Bytes()[:good.Len()-2],
		"unknown tag":  append(append([]byte{}, magic[:]...), byte(CacheEvents), 0, 0, 0, 0, 0x7F),
		"count zeroed": func() []byte { b := append([]byte{}, good.Bytes()...); b[good.Len()-3] = 0x09; return b }(),
	}
	for name, data := range cases {
		if _, err := ReadTagged(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := NewWriter(&bytes.Buffer{}, numContents, 0); err == nil {
		t.Error("invalid content accepted")
	}
}

func TestContentString(t *testing.T) {
	if got := CacheEvents.String(); got != "cache-events" {
		t.Errorf("CacheEvents = %q", got)
	}
	if got := InstrRecording.String(); got != "instr-recording" {
		t.Errorf("InstrRecording = %q", got)
	}
	if !strings.Contains(Content(9).String(), "9") {
		t.Errorf("unknown content String: %q", Content(9))
	}
	if Content(9).Valid() {
		t.Error("Content(9) valid")
	}
}
