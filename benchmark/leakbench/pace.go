package main

// Host pace. The reference host is a shared VM whose speed drifts by up
// to 40% over seconds to minutes as other tenants load it; CPU time drifts
// with wall time, so no statistic inside a run can remove it. Each run
// therefore times a fixed probe task at points where the program is idle,
// before set-up and between measured operations, and reports every
// end-to-end time as it would read at the reference pace: times are
// scaled by paceRef over the run's median probe time, rates by its
// inverse. The probe shares no code with the program under test, so a
// change to the program moves the scaled numbers as much as the raw ones.
//
// The probe has three parts, because the workloads stress the host in
// different ways: integer arithmetic in registers, which tracks the core's
// own speed; an LRU cache model over a 4 MB table with a small map, which
// tracks cache and allocation contention like the simulator and the
// leakage kernel; and the same model on every core at once, which tracks
// the whole machine as the multi-threaded workloads use it.

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

const (
	// paceRef is the probe's median time on the reference host (2 vCPU
	// Xeon VM, 2.0 GHz) in its usual state.
	paceRef = 13 * time.Millisecond

	paceRounds = 1 << 21 // arithmetic rounds
	paceSets   = 1 << 16 // sets of the cache model
	paceWays   = 8
	paceRefs   = 1 << 16 // references per cache-model pass
	// paceStartTicks are taken before set-up, so every run has samples
	// however few operations it makes.
	paceStartTicks = 4
)

// pacer times the probe and keeps every tick's duration.
type pacer struct {
	tags  [][]uint64 // one cache-model table per core
	ticks []time.Duration
	sink  uint64 // keeps the probe's results live
}

func newPacer() *pacer {
	p := &pacer{tags: make([][]uint64, runtime.GOMAXPROCS(0))}
	for i := range p.tags {
		p.tags[i] = make([]uint64, paceSets*paceWays)
	}
	return p
}

// tick times the probe once.
func (p *pacer) tick() {
	t0 := time.Now()
	p.sink += arithmetic()
	p.sink += cacheModel(p.tags[0])
	var wg sync.WaitGroup
	for _, tags := range p.tags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cacheModel(tags)
		}()
	}
	wg.Wait()
	p.ticks = append(p.ticks, time.Since(t0))
}

// median is the run's median probe time.
func (p *pacer) median() time.Duration {
	s := slices.Clone(p.ticks)
	slices.Sort(s)
	return s[len(s)/2]
}

// normalise rescales the run's end-to-end times (units s and ms) and
// rates (1/s) to the reference pace; other units stay as measured.
func (p *pacer) normalise(defs []metricDef, vals map[string]float64) {
	f := float64(paceRef) / float64(p.median())
	for _, m := range defs {
		switch m.Unit {
		case "s", "ms":
			vals[m.Name] *= f
		case "1/s":
			vals[m.Name] /= f
		}
	}
}

// arithmetic is a xorshift and multiply chain that stays in registers.
func arithmetic() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < paceRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x * (acc | 1)
	}
	return acc
}

// cacheModel drives an LRU set-associative cache model over tags with a
// stream of mostly sequential, partly random references, counting lines
// in a map as it goes.
func cacheModel(tags []uint64) uint64 {
	x := uint64(88172645463325252)
	var hits uint64
	addr := uint64(0)
	lines := map[uint64]uint32{}
	for i := 0; i < paceRefs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			addr = x >> 20
		} else {
			addr += 64
		}
		line := addr >> 6
		set := line & (paceSets - 1)
		tag := line>>16 + 1 // 0 marks an empty way
		ways := tags[set*paceWays : set*paceWays+paceWays]
		hit := paceWays - 1
		for w, t := range ways {
			if t == tag {
				hit = w
				hits++
				break
			}
		}
		copy(ways[1:hit+1], ways[:hit])
		ways[0] = tag
		if i&15 == 0 {
			lines[line&0xffff]++
		}
	}
	return hits + uint64(len(lines))
}
