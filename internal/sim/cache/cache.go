// Package cache implements the set-associative cache model used as the
// memory-hierarchy substrate for the limit study: configuration and geometry
// checks, LRU replacement, one per-access state machine (AccessLine) that
// both the CPU model and the Access view drive, and the paper's three-level
// hierarchy (64KB 2-way L1I with 1-cycle hits, 64KB 2-way L1D with 3-cycle
// hits, and a unified 2MB direct-mapped L2 with 7-cycle hits).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes a cache's geometry and timing.
type Config struct {
	Name       string
	SizeBytes  int
	BlockBytes int
	Assoc      int
	HitLatency int // cycles
}

// Validate checks the geometry: powers of two, consistent sizes.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry (size=%d block=%d assoc=%d)",
			c.Name, c.SizeBytes, c.BlockBytes, c.Assoc)
	}
	if bits.OnesCount(uint(c.SizeBytes)) != 1 {
		return fmt.Errorf("cache %q: size %d not a power of two", c.Name, c.SizeBytes)
	}
	if bits.OnesCount(uint(c.BlockBytes)) != 1 {
		return fmt.Errorf("cache %q: block %d not a power of two", c.Name, c.BlockBytes)
	}
	lines := c.SizeBytes / c.BlockBytes
	if lines*c.BlockBytes != c.SizeBytes {
		return fmt.Errorf("cache %q: size %d not a multiple of block %d", c.Name, c.SizeBytes, c.BlockBytes)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by associativity %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache %q: %d sets not a power of two", c.Name, sets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %q: negative hit latency %d", c.Name, c.HitLatency)
	}
	return nil
}

// NumLines returns the number of cache frames.
func (c Config) NumLines() int { return c.SizeBytes / c.BlockBytes }

// NumSets returns the number of sets.
func (c Config) NumSets() int { return c.NumLines() / c.Assoc }

// Stats accumulates access counters.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Fills     uint64 // misses that filled a previously empty frame
}

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit     bool
	Set     int
	Way     int
	Frame   int // Set*Assoc + Way
	Latency int // cycles to satisfy at this level (hit latency; miss handled by caller)
}

// line is one cache frame's metadata.
type line struct {
	tag      uint64 // full block-aligned address (we store the line address, not just the tag bits)
	valid    bool
	lastUsed uint64 // LRU timestamp
}

// Cache is a set-associative LRU cache. It is a functional model: it
// tracks presence and recency, not data contents.
type Cache struct {
	cfg       Config
	lines     []line // flat frame array: frame = set*assoc + way
	assoc     int
	stats     Stats
	tick      uint64 // logical access counter for recency
	indexMask uint64
	blockLog2 uint
}

// New builds a cache from cfg, validating geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.NumSets()
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, numSets*cfg.Assoc),
		assoc:     cfg.Assoc,
		indexMask: uint64(numSets - 1),
		blockLog2: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
	}, nil
}

// MustNew is New that panics on configuration errors; for fixed hierarchies.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters so far.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr converts a byte address to its block-aligned line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.blockLog2 }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(addr uint64) int {
	return int(c.LineAddr(addr) & c.indexMask)
}

// Access performs one access to byte address addr through AccessLine and
// expands the frame into set and way. On a miss the block is filled (this
// model assumes the lower level always supplies it); the caller adds
// lower-level latency based on Hit.
func (c *Cache) Access(addr uint64) AccessResult {
	frame, hit := c.AccessLine(addr)
	f := int(frame)
	return AccessResult{Hit: hit, Set: f / c.assoc, Way: f % c.assoc, Frame: f, Latency: c.cfg.HitLatency}
}

// set returns setIdx's ways as a subslice of the flat frame array; the
// header is computed, not loaded, so hot paths touch only the frames.
func (c *Cache) set(setIdx int) []line {
	base := setIdx * c.assoc
	return c.lines[base : base+c.assoc]
}

// AccessLine is the cache's one state machine: it advances the recency
// tick and the stats, fills the block on a miss, and returns only the
// frame and hit flag, so nothing is copied per access beyond two
// registers. The CPU model calls this directly per fetch group, so it
// deliberately has no wrapper layers around it.
func (c *Cache) AccessLine(addr uint64) (frame uint32, hit bool) {
	lineAddr := addr >> c.blockLog2
	base := int(lineAddr&c.indexMask) * c.assoc
	c.tick++
	c.stats.Accesses++

	for w := base; w < base+c.assoc; w++ {
		ln := &c.lines[w]
		if ln.valid && ln.tag == lineAddr {
			ln.lastUsed = c.tick
			c.stats.Hits++
			return uint32(w), true
		}
	}

	c.stats.Misses++
	victim := c.pickVictim(base)
	if c.lines[victim].valid {
		c.stats.Evictions++
	} else {
		c.stats.Fills++
	}
	c.lines[victim] = line{tag: lineAddr, valid: true, lastUsed: c.tick}
	return uint32(victim), false
}

// Probe reports whether addr is resident without updating recency or stats.
func (c *Cache) Probe(addr uint64) (frame int, resident bool) {
	lineAddr := c.LineAddr(addr)
	setIdx := int(lineAddr & c.indexMask)
	for w, ln := range c.set(setIdx) {
		if ln.valid && ln.tag == lineAddr {
			return setIdx*c.assoc + w, true
		}
	}
	return 0, false
}

// Flush invalidates all frames and clears recency state (stats are kept).
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

// pickVictim returns the frame to fill in the set starting at frame base:
// the first invalid way, else the least recently used one.
func (c *Cache) pickVictim(base int) int {
	set := c.lines[base : base+c.assoc]
	best := 0
	for w := range set {
		if !set[w].valid {
			return base + w
		}
		if set[w].lastUsed < set[best].lastUsed {
			best = w
		}
	}
	return base + best
}

// ResidentLines returns the number of currently valid frames; useful for
// occupancy assertions in tests.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, ln := range c.lines {
		if ln.valid {
			n++
		}
	}
	return n
}
