package trace

// The trace container: varint-encoded event records in a tagged streaming
// frame, so a producer can append events without knowing the final count up
// front, and so a file declares what KIND of stream it carries — timed cache
// events from the simulator, or an instruction recording (a workload's raw
// Emit stream captured for bit-identical replay, see internal/workload/spec).
//
// Layout:
//
//	magic "LKBTRC02" | content byte | numFrames uint32 LE
//	( tag 0x01 | cycleDelta uvarint | lineAddr uvarint | frame uvarint |
//	  pc uvarint | flags byte )*
//	tag 0x00 | count uvarint | totalCycles uvarint
//
// The footer count must match the number of tagged records, so truncation is
// always detected even though the header carries no length. A file with any
// other magic is rejected.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

var magic = [8]byte{'L', 'K', 'B', 'T', 'R', 'C', '0', '2'}

// Content declares what a trace file carries.
type Content uint8

const (
	// CacheEvents is a timed cache-access stream from the simulator.
	CacheEvents Content = iota
	// InstrRecording is a workload's instruction stream recorded for
	// replay: Cycle is the instruction index, LineAddr the byte address,
	// Kind maps Op→Fetch / Load→Load / Store→Store.
	InstrRecording
	numContents
)

// String implements fmt.Stringer.
func (c Content) String() string {
	switch c {
	case CacheEvents:
		return "cache-events"
	case InstrRecording:
		return "instr-recording"
	default:
		return fmt.Sprintf("Content(%d)", uint8(c))
	}
}

// Valid reports whether c names a defined content kind.
func (c Content) Valid() bool { return c < numContents }

// Record tags in the body.
const (
	tagEnd   = 0x00
	tagEvent = 0x01
)

// Tagged is a decoded trace file: its declared content kind and its stream.
type Tagged struct {
	Content Content
	Stream  *Stream
}

// Writer appends events to a trace file incrementally. It needs no
// up-front event count: Append streams each record out through a buffered
// writer and Close seals the file with the footer.
type Writer struct {
	bw        *bufio.Writer
	count     uint64
	prevCycle uint64
	total     uint64 // explicit horizon, 0 = derive from last event
	closed    bool
	err       error
}

// NewWriter starts a trace of the given content kind on w. numFrames is
// the traced cache's frame count (0 for instruction recordings, which have
// no cache geometry).
func NewWriter(w io.Writer, content Content, numFrames uint32) (*Writer, error) {
	if !content.Valid() {
		return nil, fmt.Errorf("trace: invalid content kind %d", content)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(content)); err != nil {
		return nil, err
	}
	var nf [4]byte
	binary.LittleEndian.PutUint32(nf[:], numFrames)
	if _, err := bw.Write(nf[:]); err != nil {
		return nil, err
	}
	return &Writer{bw: bw}, nil
}

// SetTotalCycles fixes the stream horizon written by Close. Without it the
// horizon is last event cycle + 1. Use it when the simulation ran past the
// final event (trailing idle cycles matter to interval analysis).
func (w *Writer) SetTotalCycles(n uint64) { w.total = n }

// Append writes one event record. Events must arrive in non-decreasing
// cycle order; several may share a cycle (a superscalar core accesses
// several lines per cycle).
func (w *Writer) Append(e Event) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: append after close")
	}
	if err := e.Validate(); err != nil {
		w.err = err
		return err
	}
	if w.count > 0 && e.Cycle < w.prevCycle {
		w.err = fmt.Errorf("trace: non-monotonic cycle %d after %d", e.Cycle, w.prevCycle)
		return w.err
	}
	var buf [binary.MaxVarintLen64]byte
	if err := w.bw.WriteByte(tagEvent); err != nil {
		w.err = err
		return err
	}
	n := binary.PutUvarint(buf[:], e.Cycle-w.prevCycle)
	if _, err := w.bw.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	w.prevCycle = e.Cycle
	n = binary.PutUvarint(buf[:], e.LineAddr)
	if _, err := w.bw.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	n = binary.PutUvarint(buf[:], uint64(e.Frame))
	if _, err := w.bw.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	n = binary.PutUvarint(buf[:], e.PC)
	if _, err := w.bw.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	flags := byte(e.Cache) | byte(e.Kind)<<2
	if e.Miss {
		flags |= 1 << 4
	}
	if err := w.bw.WriteByte(flags); err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

// Close writes the terminator and footer and flushes. The Writer is
// unusable afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: double close")
	}
	w.closed = true
	total := w.total
	if derived := w.prevCycle + 1; w.count > 0 && total < derived {
		total = derived
	}
	var buf [binary.MaxVarintLen64]byte
	if err := w.bw.WriteByte(tagEnd); err != nil {
		return err
	}
	n := binary.PutUvarint(buf[:], w.count)
	if _, err := w.bw.Write(buf[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(buf[:], total)
	if _, err := w.bw.Write(buf[:n]); err != nil {
		return err
	}
	return w.bw.Flush()
}

// ReadTagged deserializes a trace file written by a Writer, returning its
// declared content kind with the stream.
func ReadTagged(r io.Reader) (*Tagged, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, errors.New("trace: bad magic, not a leakbound trace")
	}
	cb, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading content kind: %w", err)
	}
	content := Content(cb)
	if !content.Valid() {
		return nil, fmt.Errorf("trace: invalid content kind %d", cb)
	}
	var nf [4]byte
	if _, err := io.ReadFull(br, nf[:]); err != nil {
		return nil, fmt.Errorf("trace: reading frame count: %w", err)
	}
	s := &Stream{NumFrames: binary.LittleEndian.Uint32(nf[:])}
	var cycle uint64
	const maxEvents = 1 << 32
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d tag: %w", len(s.Events), err)
		}
		if tag == tagEnd {
			break
		}
		if tag != tagEvent {
			return nil, fmt.Errorf("trace: record %d has unknown tag 0x%02x", len(s.Events), tag)
		}
		if uint64(len(s.Events)) >= maxEvents {
			return nil, fmt.Errorf("trace: implausible event count > %d", uint64(maxEvents))
		}
		e, next, err := readEvent(br, cycle, len(s.Events))
		if err != nil {
			return nil, err
		}
		cycle = next
		s.Events = append(s.Events, e)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: footer count: %w", err)
	}
	if count != uint64(len(s.Events)) {
		return nil, fmt.Errorf("trace: footer count %d != %d records read", count, len(s.Events))
	}
	s.TotalCycles, err = binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: footer total cycles: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Tagged{Content: content, Stream: s}, nil
}

// readEvent decodes one varint event record given the running cycle.
func readEvent(br *bufio.Reader, cycle uint64, i int) (Event, uint64, error) {
	delta, err := binary.ReadUvarint(br)
	if err != nil {
		return Event{}, 0, fmt.Errorf("trace: event %d cycle: %w", i, err)
	}
	cycle += delta
	lineAddr, err := binary.ReadUvarint(br)
	if err != nil {
		return Event{}, 0, fmt.Errorf("trace: event %d lineaddr: %w", i, err)
	}
	frame, err := binary.ReadUvarint(br)
	if err != nil {
		return Event{}, 0, fmt.Errorf("trace: event %d frame: %w", i, err)
	}
	if frame > 0xFFFFFFFF {
		return Event{}, 0, fmt.Errorf("trace: event %d frame %d overflows uint32", i, frame)
	}
	pc, err := binary.ReadUvarint(br)
	if err != nil {
		return Event{}, 0, fmt.Errorf("trace: event %d pc: %w", i, err)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return Event{}, 0, fmt.Errorf("trace: event %d flags: %w", i, err)
	}
	e := Event{
		Cycle:    cycle,
		LineAddr: lineAddr,
		Frame:    uint32(frame),
		PC:       pc,
		Cache:    CacheID(flags & 0x3),
		Kind:     Kind((flags >> 2) & 0x3),
		Miss:     flags&(1<<4) != 0,
	}
	if err := e.Validate(); err != nil {
		return Event{}, 0, fmt.Errorf("trace: event %d: %w", i, err)
	}
	return e, cycle, nil
}
