package interval

// Binary serialization for Distributions: the experiment harness caches
// per-benchmark distributions on disk so that repeated runs (and the
// Figure 7 / Table 2 parameter sweeps across sessions) skip re-simulation.
// The format is a little-endian header followed by varint-delta-encoded
// (length, flags, count) records in Each() order, which is ascending and
// therefore delta-friendly.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

var distMagic = [8]byte{'L', 'K', 'B', 'D', 'I', 'S', 'T', '1'}

// WriteDistribution serializes d to w.
func WriteDistribution(w io.Writer, d *Distribution) error {
	if d == nil {
		return errors.New("interval: nil distribution")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(distMagic[:]); err != nil {
		return err
	}
	var buckets uint64
	d.Each(func(length uint64, flags Flags, count uint64) bool {
		buckets++
		return true
	})
	var hdr [8 + 8 + 4]byte
	binary.LittleEndian.PutUint64(hdr[0:], buckets)
	binary.LittleEndian.PutUint64(hdr[8:], d.TotalCycles)
	binary.LittleEndian.PutUint32(hdr[16:], d.NumFrames)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	var prevLen uint64
	var werr error
	d.Each(func(length uint64, flags Flags, count uint64) bool {
		n := binary.PutUvarint(tmp[:], length-prevLen)
		if _, err := bw.Write(tmp[:n]); err != nil {
			werr = err
			return false
		}
		prevLen = length
		if err := bw.WriteByte(byte(flags)); err != nil {
			werr = err
			return false
		}
		n = binary.PutUvarint(tmp[:], count)
		if _, err := bw.Write(tmp[:n]); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadDistribution deserializes a distribution written by
// WriteDistribution.
func ReadDistribution(r io.Reader) (*Distribution, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("interval: reading magic: %w", err)
	}
	if m != distMagic {
		return nil, errors.New("interval: bad magic, not a distribution file")
	}
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("interval: reading header: %w", err)
	}
	buckets := binary.LittleEndian.Uint64(hdr[0:])
	const maxBuckets = 1 << 30
	if buckets > maxBuckets {
		return nil, fmt.Errorf("interval: implausible bucket count %d", buckets)
	}
	d := NewDistribution(binary.LittleEndian.Uint32(hdr[16:]), binary.LittleEndian.Uint64(hdr[8:]))
	var length uint64
	for i := uint64(0); i < buckets; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("interval: bucket %d length: %w", i, err)
		}
		// A longer length would not fit the tail key; a wrap would
		// break the ascending order the deltas encode.
		if delta > maxLength-length {
			return nil, fmt.Errorf("interval: bucket %d length overflows (previous %d, delta %d)", i, length, delta)
		}
		length += delta
		fb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("interval: bucket %d flags: %w", i, err)
		}
		if uint64(fb) >= NumFlags {
			return nil, fmt.Errorf("interval: bucket %d has invalid flags %#x", i, fb)
		}
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("interval: bucket %d count: %w", i, err)
		}
		if count == 0 || length == 0 {
			return nil, fmt.Errorf("interval: bucket %d has zero length or count", i)
		}
		d.Add(length, Flags(fb), count)
	}
	// Compact here, as Collector.Finish does, so a loaded distribution is
	// safe to walk concurrently (see Each).
	d.compact()
	return d, nil
}

// Equal reports whether two distributions contain identical buckets and
// metadata; used by tests and cache validation.
func (d *Distribution) Equal(other *Distribution) bool {
	if other == nil {
		return false
	}
	if d.NumFrames != other.NumFrames || d.TotalCycles != other.TotalCycles ||
		d.numIntervals != other.numIntervals || d.mass != other.mass {
		return false
	}
	type rec struct {
		l uint64
		f Flags
		c uint64
	}
	var a, b []rec
	d.Each(func(l uint64, f Flags, c uint64) bool { a = append(a, rec{l, f, c}); return true })
	other.Each(func(l uint64, f Flags, c uint64) bool { b = append(b, rec{l, f, c}); return true })
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
