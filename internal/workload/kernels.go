package workload

// This file holds the shared machinery the six benchmark generators are
// built from: an emitter that pushes instructions to the consumer, routines
// (straight-line code regions with interleaved memory references), and a
// handful of reusable access-pattern kernels (sequential sweep, strided
// sweep, pointer chase, hashed/irregular access).

// emitter wraps the consumer callback and tracks early termination.
type emitter struct {
	yield   func(Instr) bool
	stopped bool
	emitted uint64
}

// op emits a non-memory instruction at pc.
func (e *emitter) op(pc uint64) {
	if e.stopped {
		return
	}
	e.emitted++
	if !e.yield(Instr{PC: pc, Kind: Op}) {
		e.stopped = true
	}
}

// load emits a load at pc reading addr.
func (e *emitter) load(pc, addr uint64) {
	if e.stopped {
		return
	}
	e.emitted++
	if !e.yield(Instr{PC: pc, Addr: addr, Kind: Load}) {
		e.stopped = true
	}
}

// store emits a store at pc writing addr.
func (e *emitter) store(pc, addr uint64) {
	if e.stopped {
		return
	}
	e.emitted++
	if !e.yield(Instr{PC: pc, Addr: addr, Kind: Store}) {
		e.stopped = true
	}
}

// access is a memory reference to interleave into a routine body.
type access struct {
	kind InstrKind // Load or Store
	addr uint64
}

// ld and st build access values tersely.
func ld(addr uint64) access { return access{kind: Load, addr: addr} }
func st(addr uint64) access { return access{kind: Store, addr: addr} }

// routine is a straight-line code region: n instructions starting at base,
// 4 bytes apart (Alpha-style fixed-width encoding). Executing it models one
// pass through a loop body or one call of a leaf function.
type routine struct {
	base uint64
	n    int
}

// newRoutine allocates a routine of n instructions at base.
func newRoutine(base uint64, n int) routine {
	if n <= 0 {
		panic("workload: routine with no instructions")
	}
	return routine{base: base, n: n}
}

// end returns the first PC past the routine, for laying out code regions.
func (r routine) end() uint64 { return r.base + uint64(r.n)*4 }

// exec emits one execution of the routine with the given memory references
// spread evenly through the body. If there are more refs than instructions,
// the extras are emitted back-to-back at the tail.
func (r routine) exec(e *emitter, refs ...access) {
	if e.stopped {
		return
	}
	nr := len(refs)
	k := 0
	for i := 0; i < r.n && !e.stopped; i++ {
		pc := r.base + uint64(i)*4
		if k < nr && i >= (k*r.n)/nr {
			switch refs[k].kind {
			case Store:
				e.store(pc, refs[k].addr)
			default:
				e.load(pc, refs[k].addr)
			}
			k++
			continue
		}
		e.op(pc)
	}
	// Overflow refs (rare): emit at the final PC.
	for ; k < nr && !e.stopped; k++ {
		pc := r.base + uint64(r.n-1)*4
		if refs[k].kind == Store {
			e.store(pc, refs[k].addr)
		} else {
			e.load(pc, refs[k].addr)
		}
	}
}

// execRefs emits one execution of the routine with a memory reference every
// `every` instructions; gen produces the k-th reference. This is how large
// loop bodies reach a realistic load/store density (~1/3 of instructions)
// without enumerating hundreds of variadic arguments.
func (r routine) execRefs(e *emitter, every int, gen func(k int) access) {
	if e.stopped {
		return
	}
	if every <= 0 {
		every = 3
	}
	k := 0
	// untilRef counts down to the next reference slot (i%every ==
	// every-1) without a division per instruction.
	untilRef := every
	for i := 0; i < r.n && !e.stopped; i++ {
		pc := r.base + uint64(i)*4
		if untilRef--; untilRef == 0 {
			untilRef = every
			ref := gen(k)
			k++
			if ref.kind == Store {
				e.store(pc, ref.addr)
			} else {
				e.load(pc, ref.addr)
			}
			continue
		}
		e.op(pc)
	}
}

// codeLayout hands out non-overlapping code regions, modelling the text
// segment of the synthetic program.
type codeLayout struct{ next uint64 }

// newCodeLayout starts the text segment at base.
func newCodeLayout(base uint64) *codeLayout { return &codeLayout{next: base} }

// routine carves the next n-instruction region.
func (c *codeLayout) routine(n int) routine {
	r := newRoutine(c.next, n)
	c.next = r.end()
	return r
}

// skip leaves a gap (cold code that is never executed, e.g. error paths).
func (c *codeLayout) skip(bytes uint64) { c.next += bytes }

// chaseTable builds a deterministic pseudo-random cyclic permutation over
// nElems slots of elemBytes each at base, modelling a linked structure
// (ammp's neighbor lists, vortex's object graph). Walking it defeats both
// next-line and stride prefetching, like real pointer chasing.
type chaseTable struct {
	base      uint64
	elemBytes uint64
	perm      []uint32
	pos       uint32
}

// newChaseTable builds the permutation with the given seed.
func newChaseTable(base uint64, nElems int, elemBytes uint64, seed uint64) *chaseTable {
	if nElems <= 0 || elemBytes == 0 {
		panic("workload: bad chase table geometry")
	}
	perm := make([]uint32, nElems)
	for i := range perm {
		perm[i] = uint32(i)
	}
	r := newRNG(seed)
	// Sattolo's algorithm: a single cycle covering all elements.
	for i := nElems - 1; i > 0; i-- {
		j := r.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &chaseTable{base: base, elemBytes: elemBytes, perm: perm}
}

// next follows one pointer and returns the address of the element visited.
func (t *chaseTable) next() uint64 {
	t.pos = t.perm[t.pos]
	return t.base + uint64(t.pos)*t.elemBytes
}

// hotCursor produces the hot-tier reference stream: short bursts of loads
// and stores to the same line (accumulators, locals, loop counters)
// rotating slowly through a small stack-like region. The back-to-back
// same-line reuse is what populates the short-interval counts of Figure 9
// — those intervals are too short for any power-saving mode and count as
// non-prefetchable.
type hotCursor struct {
	region uint64
	lines  int
	pos    int
	k      int
}

// newHotCursor builds a cursor over `lines` 64-byte lines at region.
func newHotCursor(region uint64, lines int) *hotCursor {
	if lines <= 0 {
		panic("workload: hot cursor needs lines")
	}
	return &hotCursor{region: region, lines: lines}
}

// next returns the next hot reference: four consecutive touches of one line
// (load, store, load, store), then the cursor advances to the next line.
func (h *hotCursor) next() access {
	addr := h.region + uint64(h.pos)*64 + uint64(h.k)*8
	var a access
	if h.k%2 == 0 {
		a = ld(addr)
	} else {
		a = st(addr)
	}
	h.k++
	if h.k == 4 {
		h.k = 0
		h.pos = (h.pos + 1) % h.lines
	}
	return a
}

// strideWalker sweeps a block of a region with a fixed multi-line stride,
// re-sweeping the same block several times before moving to the next one —
// the blocked loop nests of dense numeric codes. Because the stride skips
// lines, the skipped neighbours are never touched and next-line prefetching
// can never predict these accesses; the per-PC stride predictor can.
type strideWalker struct {
	region     uint64
	regionSize uint64
	blockSize  uint64
	stride     uint64
	maxPasses  int

	blockOff uint64
	pos      uint64
	passes   int
}

// newStrideWalker validates and builds a walker. stride should be a
// multiple of 64 that is at least 128 to keep the skipped-line property.
func newStrideWalker(region, regionSize, blockSize, stride uint64, maxPasses int) *strideWalker {
	if regionSize == 0 || blockSize == 0 || stride == 0 || blockSize > regionSize || maxPasses <= 0 {
		panic("workload: bad stride walker geometry")
	}
	return &strideWalker{
		region: region, regionSize: regionSize,
		blockSize: blockSize, stride: stride, maxPasses: maxPasses,
	}
}

// next returns the next address in the blocked sweep.
func (w *strideWalker) next() uint64 {
	a := w.region + w.blockOff + w.pos
	w.pos += w.stride
	if w.pos >= w.blockSize {
		w.pos = 0
		w.passes++
		if w.passes >= w.maxPasses {
			w.passes = 0
			w.blockOff += w.blockSize
			if w.blockOff+w.blockSize > w.regionSize {
				w.blockOff = 0
			}
		}
	}
	return a
}

// seqCursor walks an array region sequentially with a fixed byte stride,
// wrapping at the end; models streaming buffers and unit-stride sweeps.
type seqCursor struct {
	base   uint64
	size   uint64
	stride uint64
	off    uint64
}

// newSeqCursor builds a cursor over [base, base+size) advancing by stride.
func newSeqCursor(base, size, stride uint64) *seqCursor {
	if size == 0 || stride == 0 {
		panic("workload: bad seq cursor geometry")
	}
	return &seqCursor{base: base, size: size, stride: stride}
}

// next returns the current address and advances.
func (s *seqCursor) next() uint64 {
	a := s.base + s.off
	s.off += s.stride
	if s.off >= s.size {
		s.off = 0
	}
	return a
}
