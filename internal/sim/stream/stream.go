// Package stream is the single-pass conduit between the timing simulator
// and its consumers: instead of materializing a []trace.Event (or calling
// a per-event closure with a 48-byte struct), the producer fills
// a fixed-capacity struct-of-arrays Batch and hands it to a Sink,
// synchronously and on its own goroutine, each time it fills; when the
// Sink returns, the producer resets the batch and fills it again. No
// intermediate trace ever exists in memory — the pipeline holds one
// batch, regardless of run length.
//
// The struct-of-arrays layout is deliberate: consumers that filter by
// cache scan one byte per event (the Caches column) and touch the wide
// columns only for matching events, and the producer appends to seven
// small arrays instead of copying whole structs through an interface.
package stream

import "leakbound/internal/sim/trace"

// DefaultBatchEvents is the default batch capacity. It matches the CPU
// core's 4096-instruction cancellation-poll granularity: one batch is
// roughly one poll window of events, so a cancelled run abandons at most
// a window of buffered work.
const DefaultBatchEvents = 4096

// Batch is a struct-of-arrays block of timed cache-access events. All
// columns share one length; event i is the i-th element of each column.
// Within a batch, cycles are non-decreasing (the producer emits in
// simulation order).
type Batch struct {
	Cycles    []uint64
	LineAddrs []uint64
	PCs       []uint64
	Frames    []uint32
	Caches    []trace.CacheID
	Kinds     []trace.Kind
	Misses    []bool
}

// NewBatch returns an empty batch with the given capacity (events).
func NewBatch(capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchEvents
	}
	return &Batch{
		Cycles:    make([]uint64, 0, capacity),
		LineAddrs: make([]uint64, 0, capacity),
		PCs:       make([]uint64, 0, capacity),
		Frames:    make([]uint32, 0, capacity),
		Caches:    make([]trace.CacheID, 0, capacity),
		Kinds:     make([]trace.Kind, 0, capacity),
		Misses:    make([]bool, 0, capacity),
	}
}

// Len returns the number of events in the batch.
func (b *Batch) Len() int { return len(b.Cycles) }

// Full reports whether the batch has reached its capacity.
func (b *Batch) Full() bool { return len(b.Cycles) == cap(b.Cycles) }

// Reset empties the batch, keeping its capacity for reuse.
func (b *Batch) Reset() {
	b.Cycles = b.Cycles[:0]
	b.LineAddrs = b.LineAddrs[:0]
	b.PCs = b.PCs[:0]
	b.Frames = b.Frames[:0]
	b.Caches = b.Caches[:0]
	b.Kinds = b.Kinds[:0]
	b.Misses = b.Misses[:0]
}

// Append adds one event by columns.
func (b *Batch) Append(cycle, lineAddr, pc uint64, frame uint32, cache trace.CacheID, kind trace.Kind, miss bool) {
	b.Cycles = append(b.Cycles, cycle)
	b.LineAddrs = append(b.LineAddrs, lineAddr)
	b.PCs = append(b.PCs, pc)
	b.Frames = append(b.Frames, frame)
	b.Caches = append(b.Caches, cache)
	b.Kinds = append(b.Kinds, kind)
	b.Misses = append(b.Misses, miss)
}

// AppendEvent adds one trace.Event; for taps and tests (the hot producer
// uses Append to keep the event out of a struct entirely).
func (b *Batch) AppendEvent(e trace.Event) {
	b.Append(e.Cycle, e.LineAddr, e.PC, e.Frame, e.Cache, e.Kind, e.Miss)
}

// Event reconstructs event i as a trace.Event; for taps (e.g. the
// record/replay codec in cmd/tracegen) and tests, not the hot path.
func (b *Batch) Event(i int) trace.Event {
	return trace.Event{
		Cycle:    b.Cycles[i],
		LineAddr: b.LineAddrs[i],
		PC:       b.PCs[i],
		Frame:    b.Frames[i],
		Cache:    b.Caches[i],
		Kind:     b.Kinds[i],
		Miss:     b.Misses[i],
	}
}

// Sink consumes one batch. The batch is only valid for the duration of
// the call: the producer reuses it as soon as Sink returns. A non-nil
// error stops the producer, which returns the error to its caller.
type Sink func(*Batch) error
