package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRead throws arbitrary bytes at the trace reader; it must never panic
// and must either return a valid stream or an error.
func FuzzRead(f *testing.F) {
	// Seed with real traces of both content kinds and some mutations.
	s := &Stream{TotalCycles: 58, NumFrames: 8}
	for i := uint64(0); i < 20; i++ {
		s.Events = append(s.Events, Event{Cycle: i * 3, LineAddr: i, Frame: uint32(i % 8), Cache: L1D, Kind: Load})
	}
	for _, content := range []Content{CacheEvents, InstrRecording} {
		var buf bytes.Buffer
		if err := writeStream(&buf, content, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("LKBTRC01"))
	f.Add([]byte("LKBTRC02"))
	f.Add(append([]byte("LKBTRC01"), make([]byte, 20)...)) // an empty v1 file
	f.Add(append(append([]byte{}, magic[:]...), 0, 0, 0, 0, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadTagged(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, magic[:]) {
			t.Fatalf("accepted input without the %q magic", magic[:])
		}
		// Whatever decodes must re-encode and decode identically.
		var out bytes.Buffer
		if err := writeStream(&out, got.Content, got.Stream); err != nil {
			t.Fatalf("re-encode of decoded stream failed: %v", err)
		}
		again, err := ReadTagged(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Content != got.Content || !reflect.DeepEqual(again.Stream, got.Stream) {
			t.Fatalf("round trip changed the trace: %v %+v != %v %+v",
				again.Content, again.Stream, got.Content, got.Stream)
		}
	})
}
