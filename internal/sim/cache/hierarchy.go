package cache

import (
	"fmt"

	"leakbound/internal/sim/trace"
)

// HierarchyConfig describes the paper's three-level memory system plus the
// latency of main memory behind the L2.
type HierarchyConfig struct {
	L1I           Config
	L1D           Config
	L2            Config
	MemoryLatency int // cycles for an L2 miss
}

// AlphaLike returns the configuration from Section 4.1: a memory hierarchy
// resembling the Compaq Alpha 21264 as modelled by SimpleScalar — 64KB 2-way
// L1I (1-cycle hit), 64KB 2-way L1D (3-cycle hit), unified 2MB direct-mapped
// L2 (7-cycle hit), LRU replacement, 64-byte blocks.
func AlphaLike() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{
			Name: "L1I", SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 2,
			HitLatency: 1,
		},
		L1D: Config{
			Name: "L1D", SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 2,
			HitLatency: 3,
		},
		L2: Config{
			Name: "L2", SizeBytes: 2 << 20, BlockBytes: 64, Assoc: 1,
			HitLatency: 7,
		},
		MemoryLatency: 100,
	}
}

// Validate checks all three cache configurations.
func (hc HierarchyConfig) Validate() error {
	for _, c := range []Config{hc.L1I, hc.L1D, hc.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if hc.MemoryLatency < 0 {
		return fmt.Errorf("cache: negative memory latency %d", hc.MemoryLatency)
	}
	if hc.L1I.BlockBytes != hc.L2.BlockBytes || hc.L1D.BlockBytes != hc.L2.BlockBytes {
		return fmt.Errorf("cache: block size mismatch across levels (L1I=%d L1D=%d L2=%d)",
			hc.L1I.BlockBytes, hc.L1D.BlockBytes, hc.L2.BlockBytes)
	}
	return nil
}

// AccessOutcome summarizes one hierarchy access for the timing model.
type AccessOutcome struct {
	Latency int // total cycles to satisfy the access
	L1      AccessResult
	L2      AccessResult // meaningful only if !L1.Hit
	L2Used  bool
}

// Hierarchy instantiates the three caches and routes accesses.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{cfg: cfg, l1i: l1i, l1d: l1d, l2: l2}, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1I returns the instruction cache.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L1D returns the data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// CacheByID returns the cache for a trace.CacheID.
func (h *Hierarchy) CacheByID(id trace.CacheID) *Cache {
	switch id {
	case trace.L1I:
		return h.l1i
	case trace.L1D:
		return h.l1d
	case trace.L2:
		return h.l2
	default:
		return nil
	}
}

// Fetch performs an instruction fetch at addr through L1I (and L2 on miss),
// returning the combined outcome.
func (h *Hierarchy) Fetch(addr uint64) AccessOutcome {
	return h.access(h.l1i, addr)
}

// Data performs a load/store at addr through L1D (and L2 on miss).
func (h *Hierarchy) Data(addr uint64) AccessOutcome {
	return h.access(h.l1d, addr)
}

func (h *Hierarchy) access(l1 *Cache, addr uint64) AccessOutcome {
	r1 := l1.Access(addr)
	out := AccessOutcome{Latency: r1.Latency, L1: r1}
	if r1.Hit {
		return out
	}
	r2 := h.l2.Access(addr)
	out.L2 = r2
	out.L2Used = true
	if r2.Hit {
		out.Latency += r2.Latency
	} else {
		out.Latency += r2.Latency + h.cfg.MemoryLatency
	}
	return out
}
