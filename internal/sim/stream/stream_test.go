package stream

import (
	"errors"
	"testing"

	"leakbound/internal/sim/trace"
)

func TestBatchAppendAndEvent(t *testing.T) {
	b := NewBatch(4)
	e := trace.Event{Cycle: 10, LineAddr: 20, PC: 30, Frame: 40, Cache: trace.L1D, Kind: trace.Store, Miss: true}
	b.AppendEvent(e)
	b.Append(11, 21, 31, 41, trace.L2, trace.Load, false)
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.Event(0); got != e {
		t.Errorf("Event(0) = %+v, want %+v", got, e)
	}
	if got := b.Event(1); got.Cycle != 11 || got.Cache != trace.L2 || got.Miss {
		t.Errorf("Event(1) = %+v", got)
	}
	if b.Full() {
		t.Error("Full at 2/4")
	}
	b.Append(12, 0, 0, 0, trace.L1I, trace.Fetch, false)
	b.Append(13, 0, 0, 0, trace.L1I, trace.Fetch, false)
	if !b.Full() {
		t.Error("not Full at 4/4")
	}
	b.Reset()
	if b.Len() != 0 || b.Full() {
		t.Error("Reset did not empty")
	}
	if cap(b.Cycles) != 4 {
		t.Error("Reset lost capacity")
	}
}

func TestNewBatchDefaultCapacity(t *testing.T) {
	b := NewBatch(0)
	if cap(b.Cycles) != DefaultBatchEvents {
		t.Fatalf("default capacity = %d", cap(b.Cycles))
	}
}

// TestFlushTrimsColumns verifies the sink sees every column at exactly
// Len() events, and that Flush hands back an empty batch at full capacity
// with the sink's error.
func TestFlushTrimsColumns(t *testing.T) {
	b := NewBatch(8)
	for i := uint64(0); i < 3; i++ {
		b.Append(i, i, i, uint32(i), trace.L1D, trace.Load, i == 1)
	}
	boom := errors.New("sink error")
	err := b.Flush(func(got *Batch) error {
		n := got.Len()
		if n != 3 {
			t.Errorf("sink saw Len %d, want 3", n)
		}
		for name, l := range map[string]int{
			"Cycles": len(got.Cycles), "LineAddrs": len(got.LineAddrs), "PCs": len(got.PCs),
			"Frames": len(got.Frames), "Caches": len(got.Caches), "Kinds": len(got.Kinds), "Misses": len(got.Misses),
		} {
			if l != n {
				t.Errorf("sink saw %s of length %d, want %d", name, l, n)
			}
		}
		if e := got.Event(2); e.Cycle != 2 || e.Miss {
			t.Errorf("Event(2) = %+v", e)
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("Flush returned %v, want the sink's error", err)
	}
	if b.Len() != 0 || len(b.Cycles) != 8 || len(b.Misses) != 8 {
		t.Errorf("after Flush: Len %d, columns %d/%d, want 0 and full capacity 8", b.Len(), len(b.Cycles), len(b.Misses))
	}
	b.Append(9, 0, 0, 0, trace.L1I, trace.Fetch, false)
	if got := b.Event(0); got.Cycle != 9 {
		t.Errorf("append after Flush: Event(0) = %+v", got)
	}
}
