// Package u64map provides a linear-probing hash table with uint64 keys,
// built for the simulator's per-event hot paths (prefetch predictor
// tables, sparse interval buckets) where Go's generic map machinery —
// hashing through memhash, group probing, incremental growth — dominates
// the profile. The table trades those features for a flat layout: one
// state byte, one key word and one value per slot, a multiplicative hash
// and a linear probe, which the compiler inlines into a few loads per
// lookup.
//
// The table is deterministic: identical operation sequences produce
// identical iteration order (slot order), unlike Go maps' seeded
// iteration. Callers in this repo only fold iterated values into
// order-independent sums, but determinism here means the property holds
// by construction rather than by discipline.
//
// Not safe for concurrent use; every call site owns its table from one
// goroutine, as each benchmark's simulation runs on one goroutine.
package u64map

const (
	slotEmpty uint8 = iota
	slotFull
	slotDead // tombstone: key deleted, probe chains pass through
)

// minCap keeps tiny tables from rehashing constantly.
const minCap = 16

// Map is an open-addressing uint64-keyed hash table.
type Map[V any] struct {
	state []uint8
	keys  []uint64
	vals  []V
	live  int
	dead  int
	shift uint // 64 - log2(len(keys))
}

// New returns a table pre-sized for at least hint entries.
func New[V any](hint int) *Map[V] {
	capacity := minCap
	for capacity < hint*2 {
		capacity *= 2
	}
	m := &Map[V]{}
	m.init(capacity)
	return m
}

func (m *Map[V]) init(capacity int) {
	m.state = make([]uint8, capacity)
	m.keys = make([]uint64, capacity)
	m.vals = make([]V, capacity)
	m.live, m.dead = 0, 0
	shift := uint(64)
	for c := capacity; c > 1; c >>= 1 {
		shift--
	}
	m.shift = shift
}

// Len returns the number of live entries.
func (m *Map[V]) Len() int { return m.live }

// hash spreads the key with a Fibonacci multiplier; the high bits (the
// well-mixed ones after multiplication) select the slot.
func (m *Map[V]) hash(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> m.shift
}

// Get returns the value for k.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if p := m.Ptr(k); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Ptr returns a pointer to k's value, or nil if absent. The pointer is
// valid until the next Upsert (which may grow the table).
func (m *Map[V]) Ptr(k uint64) *V {
	if m.state == nil {
		return nil
	}
	mask := uint64(len(m.keys) - 1)
	for i := m.hash(k); ; i = (i + 1) & mask {
		switch m.state[i] {
		case slotEmpty:
			return nil
		case slotFull:
			if m.keys[i] == k {
				return &m.vals[i]
			}
		}
	}
}

// Upsert returns a pointer to k's value, inserting the zero value first
// if k is absent. The pointer is valid until the next Upsert.
func (m *Map[V]) Upsert(k uint64) *V {
	if m.state == nil {
		//lint:ignore hotalloc lazy first-touch init; table growth is amortized doubling
		m.init(minCap)
	}
	// Grow before probing so the returned pointer survives this call.
	if (m.live+m.dead+1)*4 > len(m.keys)*3 {
		m.rehash()
	}
	mask := uint64(len(m.keys) - 1)
	firstDead := -1
	for i := m.hash(k); ; i = (i + 1) & mask {
		switch m.state[i] {
		case slotEmpty:
			if firstDead >= 0 {
				i = uint64(firstDead)
				m.dead--
			}
			m.state[i] = slotFull
			m.keys[i] = k
			var zero V
			m.vals[i] = zero
			m.live++
			return &m.vals[i]
		case slotFull:
			if m.keys[i] == k {
				return &m.vals[i]
			}
		case slotDead:
			if firstDead < 0 {
				firstDead = int(i)
			}
		}
	}
}

// Set stores v under k.
func (m *Map[V]) Set(k uint64, v V) { *m.Upsert(k) = v }

// Delete removes k, reporting whether it was present.
func (m *Map[V]) Delete(k uint64) bool {
	if m.state == nil {
		return false
	}
	mask := uint64(len(m.keys) - 1)
	for i := m.hash(k); ; i = (i + 1) & mask {
		switch m.state[i] {
		case slotEmpty:
			return false
		case slotFull:
			if m.keys[i] == k {
				m.state[i] = slotDead
				var zero V
				m.vals[i] = zero
				m.live--
				m.dead++
				return true
			}
		}
	}
}

// Each calls fn for every live entry in slot order; iteration stops when
// fn returns false. fn may write through the value pointer but must not
// insert or delete entries.
func (m *Map[V]) Each(fn func(k uint64, v *V) bool) {
	for i, s := range m.state {
		if s == slotFull {
			if !fn(m.keys[i], &m.vals[i]) {
				return
			}
		}
	}
}

// rehash doubles capacity — or merely compacts tombstones when they are
// the bulk of the occupancy — and reinserts every live entry.
func (m *Map[V]) rehash() {
	capacity := len(m.keys)
	if m.live*4 > capacity {
		capacity *= 2
	}
	oldState, oldKeys, oldVals := m.state, m.keys, m.vals
	m.init(capacity)
	mask := uint64(capacity - 1)
	for i, s := range oldState {
		if s != slotFull {
			continue
		}
		k := oldKeys[i]
		j := m.hash(k)
		for m.state[j] == slotFull {
			j = (j + 1) & mask
		}
		m.state[j] = slotFull
		m.keys[j] = k
		m.vals[j] = oldVals[i]
		m.live++
	}
}

// Pages is a uint64 -> uint64 map specialized for line-address keys, where
// the zero value means "absent" (both hot-path users — last-access tables
// and in-flight prefetch records — already encode presence as value+1).
// Values live in fixed 512-entry pages keyed by k>>9, found through a Map
// of page pointers, with a one-page memo in front: cache lines are
// accessed with strong spatial locality (sequential code, strided data),
// so most lookups hit the memoed page and cost a shift, a compare and an
// array index. Pages never move once allocated, so slot pointers are
// stable for the lifetime of the Pages.
type Pages struct {
	table   Map[*[pageSize]uint64]
	memoKey uint64 // page key + 1; 0 = no memo
	memo    *[pageSize]uint64
}

const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Slot returns a pointer to k's value, materializing its page on first
// touch. The memo-hit fast path is small enough to inline into per-event
// callers; only a page switch pays a call.
func (p *Pages) Slot(k uint64) *uint64 {
	if k>>pageShift+1 != p.memoKey {
		return p.slotSlow(k)
	}
	return &p.memo[k&pageMask]
}

func (p *Pages) slotSlow(k uint64) *uint64 {
	pk := k >> pageShift
	pp := p.table.Upsert(pk)
	if *pp == nil {
		//lint:ignore hotalloc one 4KB page per 512 distinct keys, first touch only
		*pp = new([pageSize]uint64)
	}
	p.memoKey, p.memo = pk+1, *pp
	return &p.memo[k&pageMask]
}

// Lookup returns a pointer to k's value, or nil if its page was never
// touched. Unlike Slot it allocates nothing; like Slot, a memo hit stays
// inline in the caller.
//
//lint:hotpath
func (p *Pages) Lookup(k uint64) *uint64 {
	if k>>pageShift+1 != p.memoKey {
		return p.lookupSlow(k)
	}
	return &p.memo[k&pageMask]
}

func (p *Pages) lookupSlow(k uint64) *uint64 {
	pk := k >> pageShift
	if pg, ok := p.table.Get(pk); ok {
		p.memoKey, p.memo = pk+1, pg
		return &pg[k&pageMask]
	}
	return nil
}

// Get returns k's value, or 0 if absent.
//
//lint:hotpath
func (p *Pages) Get(k uint64) uint64 {
	if k>>pageShift+1 != p.memoKey {
		return p.getSlow(k)
	}
	return p.memo[k&pageMask]
}

func (p *Pages) getSlow(k uint64) uint64 {
	if v := p.lookupSlow(k); v != nil {
		return *v
	}
	return 0
}

// Each calls fn for every non-zero value in page-table slot order, then
// ascending key within each page; iteration stops when fn returns false.
// fn may write through the value pointer (including zeroing it) but must
// not call Slot.
func (p *Pages) Each(fn func(k uint64, v *uint64) bool) {
	p.table.Each(func(pk uint64, pg **[pageSize]uint64) bool {
		base := pk << pageShift
		for i := range *pg {
			if (*pg)[i] == 0 {
				continue
			}
			if !fn(base|uint64(i), &(*pg)[i]) {
				return false
			}
		}
		return true
	})
}
