package main

// Summary statistics and load-schedule helpers. Everything here is a pure
// function of its inputs (and of a seed, for the random draws), so a
// benchmark run is reproducible from its -seed.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; with fewer, the percentile is an extrapolation and is
// refused.
const minBeyond = 10

// errTooFewSamples reports a percentile the sample cannot support.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spreads this harness prints match the ones an external
// check computes from the same values. It needs at least one value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise figure the bounds in BENCHMARK.json are judged against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). It
// refuses, with errTooFewSamples, when fewer than minBeyond samples lie
// above the chosen rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w", p*100, n, errTooFewSamples)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// newRand returns the generator for one named stream of a run's seed:
// every random choice a workload makes comes from newRand(seed, stream),
// so the same seed always yields the same inputs, and two streams never
// share draws.
func newRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// poissonSchedule returns the send offsets of an open-loop Poisson
// arrival process at rate per second over dur, from r: exponential gaps,
// so the same generator state reproduces the same schedule exactly.
func poissonSchedule(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	if rate <= 0 || dur <= 0 {
		return nil
	}
	out := make([]time.Duration, 0, int(rate*dur.Seconds()*1.2)+8)
	t := 0.0
	limit := dur.Seconds()
	for {
		t += r.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// zipfKeys draws indexes in [0, n) with Zipf-like popularity: rank k is
// drawn with weight ~ 1/(k+1)^s, and ranks map to keys through a seeded
// permutation so the hot keys are not simply the first ones listed.
type zipfKeys struct {
	z    *rand.Zipf
	perm []int
}

// newZipfKeys builds a drawer over n keys with exponent s > 1.
func newZipfKeys(r *rand.Rand, n int, s float64) *zipfKeys {
	return &zipfKeys{z: rand.NewZipf(r, s, 1, uint64(n-1)), perm: r.Perm(n)}
}

// next draws one key index.
func (z *zipfKeys) next() int { return z.perm[z.z.Uint64()] }

// blockMix draws categories in exact proportions: every block of
// sum(weights) draws holds category k exactly weights[k] times, in a
// seeded order. Any window of a run then carries the declared mix rather
// than a binomial sample of it, so rare heavy requests cannot bunch up in
// one run and thin out in the next.
type blockMix struct {
	r       *rand.Rand
	weights []int
	block   []int
}

// next draws one category index.
func (b *blockMix) next() int {
	if len(b.block) == 0 {
		for k, w := range b.weights {
			for i := 0; i < w; i++ {
				b.block = append(b.block, k)
			}
		}
		b.r.Shuffle(len(b.block), func(i, j int) { b.block[i], b.block[j] = b.block[j], b.block[i] })
	}
	k := b.block[0]
	b.block = b.block[1:]
	return k
}

// reservoir keeps a uniform random sample of at most k items of a stream
// whose length is not known in advance (Vitter's algorithm R). Its memory
// is fixed by k, not by how many items pass through it.
type reservoir[T any] struct {
	r     *rand.Rand
	k     int
	seen  int
	items []T
}

func newReservoir[T any](r *rand.Rand, k int) *reservoir[T] {
	return &reservoir[T]{r: r, k: k, items: make([]T, 0, k)}
}

// add offers one item of the stream to the sample.
func (s *reservoir[T]) add(x T) {
	s.seen++
	if len(s.items) < s.k {
		s.items = append(s.items, x)
		return
	}
	if j := s.r.IntN(s.seen); j < s.k {
		s.items[j] = x
	}
}

// geometricLadder returns points values spaced geometrically from from to
// to inclusive, rounded and deduplicated (the spacing leakaged's sweep
// endpoint and the experiments CLI use).
func geometricLadder(from, to uint64, points int) []uint64 {
	if points <= 1 || from >= to {
		return []uint64{from}
	}
	ratio := math.Pow(float64(to)/float64(from), 1/float64(points-1))
	out := make([]uint64, 0, points)
	last := uint64(0)
	for i := 0; i < points; i++ {
		v := uint64(math.Round(float64(from) * math.Pow(ratio, float64(i))))
		if v <= last {
			continue
		}
		out = append(out, v)
		last = v
	}
	return out
}
