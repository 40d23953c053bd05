// Package trace defines the timed memory-access event stream that flows from
// the timing simulator (internal/sim/cpu) into the interval analyzer
// (internal/interval) and the prefetchability classifier (internal/prefetch).
//
// In the paper's methodology this corresponds to the address trace with cycle
// timing produced by SimpleScalar; the limit study consumes nothing else.
// Events are emitted at cache-line granularity for a specific cache (L1I,
// L1D, or L2) and carry the frame the line landed in, so downstream analysis
// can reconstruct per-frame access intervals exactly.
//
// On disk a stream lives in one container, "LKBTRC02" (see tagged.go): a
// header that names the stream's content kind, varint event records
// appended one at a time by a Writer, and a footer that seals the count and
// horizon. ReadTagged is its only reader.
package trace

import "fmt"

// CacheID identifies which cache in the simulated hierarchy an event
// belongs to.
type CacheID uint8

const (
	// L1I is the level-1 instruction cache (64KB 2-way in the paper's setup).
	L1I CacheID = iota
	// L1D is the level-1 data cache (64KB 2-way, 3-cycle hit).
	L1D
	// L2 is the unified level-2 cache (2MB direct-mapped, 7-cycle hit).
	L2
	numCacheIDs
)

// String implements fmt.Stringer.
func (c CacheID) String() string {
	switch c {
	case L1I:
		return "L1I"
	case L1D:
		return "L1D"
	case L2:
		return "L2"
	default:
		return fmt.Sprintf("CacheID(%d)", uint8(c))
	}
}

// Valid reports whether c names a real cache.
func (c CacheID) Valid() bool { return c < numCacheIDs }

// Kind distinguishes the access type that produced an event.
type Kind uint8

const (
	// Fetch is an instruction fetch.
	Fetch Kind = iota
	// Load is a data read.
	Load
	// Store is a data write.
	Store
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k names a real access kind.
func (k Kind) Valid() bool { return k < numKinds }

// Event is one cache access with timing. LineAddr is the block-aligned
// address (address >> log2(blockSize)); Frame is the physical frame index
// (set*assoc + way) the block occupies after the access, which is what the
// interval analysis keys on, since leakage is per physical cache line.
type Event struct {
	Cycle    uint64  // completion cycle of the access
	LineAddr uint64  // block-aligned memory address
	Frame    uint32  // physical frame index in the cache
	PC       uint64  // static instruction address (for stride prefetch)
	Cache    CacheID // which cache
	Kind     Kind    // fetch / load / store
	Miss     bool    // true if the access missed in this cache
}

// Validate checks internal consistency of the event.
func (e Event) Validate() error {
	if !e.Cache.Valid() {
		return fmt.Errorf("trace: invalid cache id %d", e.Cache)
	}
	if !e.Kind.Valid() {
		return fmt.Errorf("trace: invalid kind %d", e.Kind)
	}
	return nil
}

// Stream is an in-memory sequence of events ordered by cycle, plus the
// total simulated cycle count (needed to close trailing intervals).
type Stream struct {
	Events      []Event
	TotalCycles uint64
	NumFrames   uint32 // frames in the traced cache (lines), for baselines
}

// Len returns the number of events.
func (s *Stream) Len() int { return len(s.Events) }

// Validate checks ordering and per-event consistency of the whole stream.
func (s *Stream) Validate() error {
	var prev uint64
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if e.Cycle < prev {
			return fmt.Errorf("trace: event %d cycle %d < previous %d", i, e.Cycle, prev)
		}
		if e.Cycle >= s.TotalCycles {
			return fmt.Errorf("trace: event %d cycle %d beyond horizon %d", i, e.Cycle, s.TotalCycles)
		}
		prev = e.Cycle
	}
	return nil
}
