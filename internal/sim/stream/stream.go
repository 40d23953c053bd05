// Package stream is the single-pass conduit between the timing simulator
// and its consumers: instead of materializing a []trace.Event (or calling
// a per-event closure with a 48-byte struct), the producer fills
// a fixed-capacity struct-of-arrays Batch and hands it to a Sink,
// synchronously and on its own goroutine, each time it is full or nearly
// so; when the Sink returns, the producer resets the batch and fills it
// again. No intermediate trace ever exists in memory — the pipeline holds
// one batch, regardless of run length.
//
// The struct-of-arrays layout is deliberate: consumers that filter by
// cache scan one byte per event (the Caches column) and touch the wide
// columns only for matching events, and the producer writes each event
// into seven preallocated arrays at one shared index instead of copying
// whole structs through an interface.
package stream

import "leakbound/internal/sim/trace"

// DefaultBatchEvents is the default batch capacity. It matches the CPU
// core's 4096-instruction cancellation-poll granularity: one batch is
// roughly one poll window of events, so a cancelled run abandons at most
// a window of buffered work.
const DefaultBatchEvents = 4096

// Batch is a struct-of-arrays block of timed cache-access events. Event i
// is the i-th element of each column. Within a batch, cycles are
// non-decreasing (the producer emits in simulation order).
//
// While a producer fills the batch, every column stays at its full
// capacity and Append writes event Len() by index, so an append is seven
// stores and one length update; Flush trims the columns to Len() for the
// sink, so a sink sees columns of exactly Len() events.
type Batch struct {
	Cycles    []uint64
	LineAddrs []uint64
	PCs       []uint64
	Frames    []uint32
	Caches    []trace.CacheID
	Kinds     []trace.Kind
	Misses    []bool

	n int // events written; columns at or past n are unused
}

// NewBatch returns an empty batch with the given capacity (events).
func NewBatch(capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchEvents
	}
	return &Batch{
		Cycles:    make([]uint64, capacity),
		LineAddrs: make([]uint64, capacity),
		PCs:       make([]uint64, capacity),
		Frames:    make([]uint32, capacity),
		Caches:    make([]trace.CacheID, capacity),
		Kinds:     make([]trace.Kind, capacity),
		Misses:    make([]bool, capacity),
	}
}

// Len returns the number of events in the batch.
func (b *Batch) Len() int { return b.n }

// Full reports whether the batch has reached its capacity.
func (b *Batch) Full() bool { return b.n == cap(b.Cycles) }

// Reset empties the batch, restoring every column to its full capacity
// for reuse.
func (b *Batch) Reset() {
	b.n = 0
	b.Cycles = b.Cycles[:cap(b.Cycles)]
	b.LineAddrs = b.LineAddrs[:cap(b.LineAddrs)]
	b.PCs = b.PCs[:cap(b.PCs)]
	b.Frames = b.Frames[:cap(b.Frames)]
	b.Caches = b.Caches[:cap(b.Caches)]
	b.Kinds = b.Kinds[:cap(b.Kinds)]
	b.Misses = b.Misses[:cap(b.Misses)]
}

// Append adds one event by columns. The batch must not be Full.
func (b *Batch) Append(cycle, lineAddr, pc uint64, frame uint32, cache trace.CacheID, kind trace.Kind, miss bool) {
	i := b.n
	b.Cycles[i] = cycle
	b.LineAddrs[i] = lineAddr
	b.PCs[i] = pc
	b.Frames[i] = frame
	b.Caches[i] = cache
	b.Kinds[i] = kind
	b.Misses[i] = miss
	b.n = i + 1
}

// Flush trims the columns to Len(), hands the batch to sink, and resets
// it for reuse, returning the sink's error.
func (b *Batch) Flush(sink Sink) error {
	n := b.n
	b.Cycles = b.Cycles[:n]
	b.LineAddrs = b.LineAddrs[:n]
	b.PCs = b.PCs[:n]
	b.Frames = b.Frames[:n]
	b.Caches = b.Caches[:n]
	b.Kinds = b.Kinds[:n]
	b.Misses = b.Misses[:n]
	err := sink(b)
	b.Reset()
	return err
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
