package interval

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomDist(rng *rand.Rand, n int) *Distribution {
	d := NewDistribution(uint32(rng.Intn(2048)+1), uint64(rng.Intn(1e6)+1))
	for i := 0; i < n; i++ {
		length := uint64(rng.Intn(200000) + 1)
		flags := Flags(rng.Intn(int(DeadEnd) * 2)) // any 6-bit combination
		count := uint64(rng.Intn(100) + 1)
		d.Add(length, flags, count)
	}
	return d
}

func TestDistributionCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 50, 5000} {
		d := randomDist(rng, n)
		var buf bytes.Buffer
		if err := WriteDistribution(&buf, d); err != nil {
			t.Fatalf("n=%d write: %v", n, err)
		}
		got, err := ReadDistribution(&buf)
		if err != nil {
			t.Fatalf("n=%d read: %v", n, err)
		}
		if !d.Equal(got) {
			t.Fatalf("n=%d round trip changed distribution", n)
		}
	}
}

func TestDistributionCodecProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDist(rng, int(nRaw))
		var buf bytes.Buffer
		if err := WriteDistribution(&buf, d); err != nil {
			return false
		}
		got, err := ReadDistribution(&buf)
		if err != nil {
			return false
		}
		return d.Equal(got) && got.Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWriteDistributionNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDistribution(&buf, nil); err == nil {
		t.Error("nil distribution accepted")
	}
}

func TestReadDistributionGarbage(t *testing.T) {
	if _, err := ReadDistribution(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadDistribution(strings.NewReader("LKBDIST1")); err == nil {
		t.Error("truncated header accepted")
	}
	// Valid magic+header claiming buckets, then truncated payload.
	var buf bytes.Buffer
	buf.Write(distMagic[:])
	hdr := make([]byte, 20)
	hdr[0] = 9
	buf.Write(hdr)
	if _, err := ReadDistribution(&buf); err == nil {
		t.Error("truncated payload accepted")
	}
	// Absurd bucket count.
	buf.Reset()
	buf.Write(distMagic[:])
	for i := 0; i < 8; i++ {
		hdr[i] = 0xFF
	}
	buf.Write(hdr)
	if _, err := ReadDistribution(&buf); err == nil {
		t.Error("absurd bucket count accepted")
	}
}

func TestReadDistributionRejectsBadFlags(t *testing.T) {
	// Hand-craft one bucket with flags out of range.
	var buf bytes.Buffer
	buf.Write(distMagic[:])
	hdr := make([]byte, 20)
	hdr[0] = 1  // one bucket
	hdr[8] = 10 // cycles
	hdr[16] = 1 // frames
	buf.Write(hdr)
	buf.WriteByte(5)    // length varint = 5
	buf.WriteByte(0xFF) // flags: invalid
	buf.WriteByte(1)    // count = 1
	if _, err := ReadDistribution(&buf); err == nil {
		t.Error("invalid flags accepted")
	}
}

// distFile hand-encodes a distribution file: the header, then one
// (length delta, flags, count) record per bucket.
func distFile(frames uint32, cycles uint64, records ...[3]uint64) []byte {
	b := append([]byte(nil), distMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(records)))
	b = binary.LittleEndian.AppendUint64(b, cycles)
	b = binary.LittleEndian.AppendUint32(b, frames)
	for _, r := range records {
		b = binary.AppendUvarint(b, r[0])
		b = append(b, byte(r[1]))
		b = binary.AppendUvarint(b, r[2])
	}
	return b
}

// TestReadDistributionRejectsOverlongLength: a bucket length past the
// tail key's 58 bits, reached directly or by a wrapping delta, is
// rejected instead of loading as a different length.
func TestReadDistributionRejectsOverlongLength(t *testing.T) {
	for name, data := range map[string][]byte{
		"2^58":     distFile(1, 100, [3]uint64{1 << 58, 0, 1}),
		"wrapping": distFile(1, 100, [3]uint64{5, 0, 1}, [3]uint64{^uint64(0) - 2, 0, 1}),
	} {
		if d, err := ReadDistribution(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted, mass %d", name, d.Mass())
		}
	}
	d, err := ReadDistribution(bytes.NewReader(distFile(1, 100, [3]uint64{maxLength, uint64(Trailing), 1})))
	if err != nil {
		t.Fatalf("longest length rejected: %v", err)
	}
	d.Each(func(length uint64, flags Flags, count uint64) bool {
		if length != maxLength || flags != Trailing || count != 1 {
			t.Errorf("bucket (%d, %v, %d), want (%d, trailing, 1)", length, flags, count, uint64(maxLength))
		}
		return true
	})
}

func TestDistributionEqual(t *testing.T) {
	a := NewDistribution(4, 100)
	a.Add(5, 0, 2)
	b := NewDistribution(4, 100)
	b.Add(5, 0, 2)
	if !a.Equal(b) {
		t.Error("identical distributions not equal")
	}
	b.Add(6, 0, 1)
	if a.Equal(b) {
		t.Error("different distributions equal")
	}
	if a.Equal(nil) {
		t.Error("nil equal")
	}
	c := NewDistribution(5, 100)
	c.Add(5, 0, 2)
	if a.Equal(c) {
		t.Error("different frame counts equal")
	}
}

func BenchmarkDistributionCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := randomDist(rng, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteDistribution(&buf, d); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadDistribution(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReadDistribution throws arbitrary bytes at the distribution codec; it
// must never panic or over-allocate, and anything it accepts must survive a
// re-encode round trip.
func FuzzReadDistribution(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	d := randomDist(rng, 30)
	var buf bytes.Buffer
	if err := WriteDistribution(&buf, d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("LKBDIST1"))
	f.Add(distFile(1, 100, [3]uint64{1 << 58, 0, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadDistribution(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteDistribution(&out, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadDistribution(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !got.Equal(again) {
			t.Fatal("round trip changed distribution")
		}
	})
}
