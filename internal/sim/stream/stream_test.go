package stream

import (
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
