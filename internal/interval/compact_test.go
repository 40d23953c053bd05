package interval

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// sortMerge is the comparison-sort reference for compact: sort the log by
// key, then sum the counts of equal keys.
func sortMerge(log []tailBucket) []tailBucket {
	s := slices.Clone(log)
	slices.SortFunc(s, func(a, b tailBucket) int { return cmp.Compare(a.key, b.key) })
	var out []tailBucket
	for _, b := range s {
		if n := len(out); n > 0 && out[n-1].key == b.key {
			out[n-1].count += b.count
			continue
		}
		out = append(out, b)
	}
	return out
}

// checkCompact compacts a distribution whose tail is log and compares the
// result with the reference; a second compact must change nothing.
func checkCompact(t *testing.T, name string, log []tailBucket) {
	t.Helper()
	want := sortMerge(log)
	d := NewDistribution(1, 0)
	d.tail = slices.Clone(log)
	d.compact()
	if !slices.Equal(d.tail, want) && len(want)+len(d.tail) > 0 {
		t.Fatalf("%s: compact of %d entries gave %d buckets, want %d (first diff at %d)",
			name, len(log), len(d.tail), len(want), firstDiff(d.tail, want))
	}
	if d.tailClean != len(d.tail) {
		t.Fatalf("%s: tailClean %d, len %d", name, d.tailClean, len(d.tail))
	}
	again := slices.Clone(d.tail)
	d.compact()
	if !slices.Equal(d.tail, again) {
		t.Fatalf("%s: second compact changed the tail", name)
	}
}

func firstDiff(a, b []tailBucket) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// randomLog draws n tail entries whose lengths come from [lo, lo+span),
// so a narrow span forces duplicate keys, with counts up to maxCount.
func randomLog(rng *rand.Rand, n int, lo, span uint64, maxCount int) []tailBucket {
	log := make([]tailBucket, n)
	for i := range log {
		length := lo + uint64(rng.Int63n(int64(span)))
		log[i] = tailBucket{length<<6 | uint64(rng.Intn(NumFlags)), uint64(rng.Intn(maxCount) + 1)}
	}
	return log
}

// TestCompactMatchesSortMerge pins the radix compaction to the
// comparison-sort-and-merge it replaced, on every tail shape collection
// produces plus the edge cases of the digit passes.
func TestCompactMatchesSortMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 2, 3, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 1000, 50000} {
		checkCompact(t, "distinct", randomLog(rng, n, denseLimit, 1<<24, 1))
		checkCompact(t, "duplicates", randomLog(rng, n, denseLimit, 64, 1))
		checkCompact(t, "counts", randomLog(rng, n, denseLimit, 4096, 1000))
		checkCompact(t, "huge", randomLog(rng, n, 1<<57, 1<<40, 3))
		checkCompact(t, "mixed", append(randomLog(rng, n/2, denseLimit, 1<<20, 2), randomLog(rng, n-n/2, 1<<50, 1<<30, 2)...))
	}
	for _, n := range []int{2, 100, 10000} {
		log := randomLog(rng, n, denseLimit, 1<<30, 1)
		sorted := sortMerge(log)
		checkCompact(t, "pre-sorted", sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		checkCompact(t, "reverse-sorted", reversed)
		same := make([]tailBucket, n)
		for i := range same {
			same[i] = tailBucket{denseLimit << 6, 5}
		}
		checkCompact(t, "all-equal", same)
	}
	checkCompact(t, "extreme-keys", []tailBucket{{^uint64(0), 1}, {0, 2}, {1 << 63, 3}, {^uint64(0), 4}, {1, 5}})

	// Tails as collection leaves them: an untouched-style bucket of
	// count > 1, and a compacted tail followed by a second, sorted one.
	a := NewDistribution(4, 1<<40)
	for _, l := range randomLog(rng, 5000, denseLimit, 1<<16, 1) {
		a.Add(l.key>>6, Flags(l.key&(NumFlags-1)), l.count)
	}
	a.Add(1<<40, Untouched, 3)
	a.compact()
	second := append(randomLog(rng, 5000, denseLimit, 1<<16, 1), tailBucket{1<<40<<6 | uint64(Untouched), 2})
	for _, l := range sortMerge(second) {
		a.Add(l.key>>6, Flags(l.key&(NumFlags-1)), l.count)
	}
	checkCompact(t, "two compacted tails", a.tail)
}

// FuzzCompact feeds arbitrary (key, count) logs to compact and checks them
// against the comparison-sort reference. Each 9-byte record is a
// little-endian key and a one-byte count.
func FuzzCompact(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<40))
	rng := rand.New(rand.NewSource(5))
	for _, span := range []uint64{4, 1 << 20, 1 << 50} {
		var seed []byte
		for _, b := range randomLog(rng, 80, denseLimit, span, 255) {
			seed = binary.LittleEndian.AppendUint64(seed, b.key)
			seed = append(seed, byte(b.count))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var log []tailBucket
		for ; len(data) >= 9; data = data[9:] {
			log = append(log, tailBucket{binary.LittleEndian.Uint64(data), uint64(data[8])})
		}
		checkCompact(t, "fuzz", log)
	})
}

// BenchmarkDistributionCompact times compact on a fresh tail the size of
// the suite's largest (~380k entries, lengths from denseLimit up with a
// heavy tail), rebuilt before every iteration; BenchmarkDistributionEach
// compacts only once.
func BenchmarkDistributionCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	src := make([]tailBucket, 380000)
	for i := range src {
		length := uint64(denseLimit) + uint64(rng.ExpFloat64()*40000)
		src[i] = tailBucket{length<<6 | uint64(rng.Intn(NumFlags)), 1}
	}
	d := NewDistribution(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.tail = append(d.tail[:0], src...)
		d.tailClean = 0
		b.StartTimer()
		d.compact()
	}
}
