package u64map

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := New[uint64](0)
	if m.Len() != 0 {
		t.Fatalf("fresh Len = %d", m.Len())
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("Get on empty table")
	}
	m.Set(7, 70)
	m.Set(0, 5) // zero key must work like any other
	m.Set(7, 71)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(7); !ok || v != 71 {
		t.Errorf("Get(7) = %v,%v", v, ok)
	}
	if v, ok := m.Get(0); !ok || v != 5 {
		t.Errorf("Get(0) = %v,%v", v, ok)
	}
	if !m.Delete(7) || m.Delete(7) {
		t.Error("Delete semantics")
	}
	if _, ok := m.Get(7); ok {
		t.Error("Get after Delete")
	}
	if m.Len() != 1 {
		t.Errorf("Len after delete = %d", m.Len())
	}
}

func TestUpsertPointer(t *testing.T) {
	m := New[int](0)
	p := m.Upsert(42)
	if *p != 0 {
		t.Fatalf("fresh Upsert value = %d", *p)
	}
	*p = 9
	if v, _ := m.Get(42); v != 9 {
		t.Fatalf("write through Upsert pointer lost: %d", v)
	}
	if q := m.Ptr(42); q == nil || *q != 9 {
		t.Fatal("Ptr disagreement")
	}
	if m.Ptr(43) != nil {
		t.Fatal("Ptr on absent key")
	}
}

func TestAgainstStdMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New[uint64](0)
	ref := map[uint64]uint64{}
	const keySpace = 512 // force collisions and reuse
	for i := 0; i < 200000; i++ {
		k := uint64(rng.Intn(keySpace))
		switch rng.Intn(4) {
		case 0, 1: // insert/update
			v := rng.Uint64()
			m.Set(k, v)
			ref[k] = v
		case 2: // delete
			got := m.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		case 3: // increment through Upsert
			*m.Upsert(k)++
			ref[k]++
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %v,%v want %v", k, got, ok, want)
		}
	}
	seen := map[uint64]uint64{}
	m.Each(func(k uint64, v *uint64) bool {
		seen[k] = *v
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Each visited %d entries, want %d", len(seen), len(ref))
	}
	for k, want := range ref {
		if seen[k] != want {
			t.Fatalf("Each saw %d=%d, want %d", k, seen[k], want)
		}
	}
}

func TestEachEarlyStop(t *testing.T) {
	m := New[int](0)
	for k := uint64(0); k < 100; k++ {
		m.Set(k, 1)
	}
	n := 0
	m.Each(func(uint64, *int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("Each visited %d after early stop", n)
	}
}

func TestTombstoneCompaction(t *testing.T) {
	// Churn a small key set: deletions must not grow the table unboundedly
	// or break lookups (the rehash path compacts tombstones).
	m := New[int](0)
	for i := 0; i < 100000; i++ {
		k := uint64(i % 8)
		m.Set(k, i)
		m.Delete(k)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after balanced churn", m.Len())
	}
	if got := len(m.keys); got > 256 {
		t.Fatalf("table grew to %d slots under churn; tombstones not compacted", got)
	}
}

func TestZeroValueMap(t *testing.T) {
	var m Map[int]
	if _, ok := m.Get(1); ok {
		t.Fatal("Get on zero Map")
	}
	if m.Delete(1) {
		t.Fatal("Delete on zero Map")
	}
	m.Set(1, 2)
	if v, ok := m.Get(1); !ok || v != 2 {
		t.Fatal("Set/Get on zero Map")
	}
}

func BenchmarkUpsertGet(b *testing.B) {
	m := New[uint64](0)
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 4095
		*m.Upsert(k) = uint64(i)
		if v, ok := m.Get(k ^ 1); ok {
			_ = v
		}
	}
}

// TestPagesReadsAllocationFree is the dynamic twin of the //lint:hotpath
// markers on Lookup and Get: once its pages exist, a read allocates
// nothing, whether it hits the one-page memo, misses it, or finds no page.
func TestPagesReadsAllocationFree(t *testing.T) {
	keys := []uint64{1, 2, pageSize + 3, 1 << 20, 5} // three pages
	var p Pages
	for _, k := range keys {
		*p.Slot(k) = k + 1
	}
	lookup := func(k uint64) uint64 {
		if v := p.Lookup(k); v != nil {
			return *v
		}
		return 0
	}
	for _, r := range []struct {
		name string
		read func(uint64) uint64
	}{{"Lookup", lookup}, {"Get", p.Get}} {
		name, read := r.name, r.read
		t.Run(name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				for _, k := range keys {
					if read(k) != k+1 || read(k+1<<30) != 0 {
						t.Fatalf("%s(%d) = %d, want %d", name, k, read(k), k+1)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocs/run, want 0", name, allocs)
			}
		})
	}
}
