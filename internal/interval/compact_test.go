package interval

import (
	"bytes"
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

// unpack decodes a packed tail with encoding/binary, independently of
// tailReader.
func unpack(packed []byte) []tailBucket {
	var out []tailBucket
	var key uint64
	for len(packed) > 0 {
		delta, n := binary.Uvarint(packed)
		count, m := binary.Uvarint(packed[n:])
		packed = packed[n+m:]
		key += delta
		out = append(out, tailBucket{key, count})
	}
	return out
}

// readTail walks a packed tail through tailReader.
func readTail(packed []byte) []tailBucket {
	var out []tailBucket
	buf := make([]tailBucket, 3)
	for r := (tailReader{buf: packed}); ; {
		n := r.read(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// checkPacked checks that d's tail is compacted to exactly want: no log
// left, and packed bytes that decode to want both independently and
// through tailReader, held at exactly their encoded size.
func checkPacked(t *testing.T, name string, d *Distribution, want []tailBucket) {
	t.Helper()
	if len(d.tail) != 0 {
		t.Fatalf("%s: %d log entries left after compact", name, len(d.tail))
	}
	for via, got := range map[string][]tailBucket{"decoded": unpack(d.packed), "read": readTail(d.packed)} {
		if !slices.Equal(got, want) && len(want)+len(got) > 0 {
			t.Fatalf("%s: %s tail has %d buckets, want %d (first diff at %d)",
				name, via, len(got), len(want), firstDiff(got, want))
		}
	}
	var size int
	var prev uint64
	for _, b := range want {
		size += len(binary.AppendUvarint(nil, b.key-prev)) + len(binary.AppendUvarint(nil, b.count))
		prev = b.key
	}
	if len(d.packed) != size || cap(d.packed) != len(d.packed) {
		t.Fatalf("%s: packed tail len %d cap %d, want both %d", name, len(d.packed), cap(d.packed), size)
	}
}

// checkCompact compacts a distribution whose tail log is log and compares
// the packed result with the reference; a second compact must change
// nothing.
func checkCompact(t *testing.T, name string, log []tailBucket) {
	t.Helper()
	d := NewDistribution(1, 0)
	d.tail = slices.Clone(log)
	d.compact()
	checkPacked(t, name, d, sortMerge(log))
	again := slices.Clone(d.packed)
	d.compact()
	if !bytes.Equal(d.packed, again) {
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
	// count > 1, then Adds after compaction that repeat and extend the
	// packed keys; the second compact merges the log into the packed tail.
	a := NewDistribution(4, 1<<40)
	first := append(randomLog(rng, 5000, denseLimit, 1<<16, 1), tailBucket{1<<40<<6 | uint64(Untouched), 3})
	for _, l := range first {
		a.Add(l.key>>6, Flags(l.key&(NumFlags-1)), l.count)
	}
	a.compact()
	checkPacked(t, "first compaction", a, sortMerge(first))
	second := append(randomLog(rng, 5000, denseLimit, 1<<17, 1), tailBucket{1<<40<<6 | uint64(Untouched), 2})
	for _, l := range second {
		a.Add(l.key>>6, Flags(l.key&(NumFlags-1)), l.count)
	}
	if len(a.tail) != len(second) {
		t.Fatalf("Add after compaction: log holds %d entries, want %d", len(a.tail), len(second))
	}
	a.compact()
	checkPacked(t, "Add after compaction", a, sortMerge(append(first, second...)))

	// The longest length a key holds, under every flags value.
	top := NewDistribution(1, 0)
	var log []tailBucket
	for f := range NumFlags {
		log = append(log, tailBucket{maxLength<<6 | uint64(f), uint64(f + 1)})
		top.Add(maxLength, Flags(f), uint64(f+1))
	}
	top.Add(maxLength-1, 0, 1)
	top.compact()
	checkPacked(t, "longest keys", top, sortMerge(append(log, tailBucket{(maxLength - 1) << 6, 1})))
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
		d.packed = nil
		b.StartTimer()
		d.compact()
	}
}
