package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{Name: "t", SizeBytes: 1024, BlockBytes: 64, Assoc: 2, HitLatency: 1}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero size", func(c *Config) { c.SizeBytes = 0 }},
		{"non-pow2 size", func(c *Config) { c.SizeBytes = 1000 }},
		{"non-pow2 block", func(c *Config) { c.BlockBytes = 48 }},
		{"zero assoc", func(c *Config) { c.Assoc = 0 }},
		{"assoc not dividing", func(c *Config) { c.Assoc = 3 }},
		{"negative latency", func(c *Config) { c.HitLatency = -1 }},
	}
	for _, tc := range cases {
		c := smallConfig()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	c := smallConfig()
	if c.NumLines() != 16 {
		t.Errorf("NumLines = %d, want 16", c.NumLines())
	}
	if c.NumSets() != 8 {
		t.Errorf("NumSets = %d, want 8", c.NumSets())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(smallConfig())
	r := c.Access(0x1000)
	if r.Hit {
		t.Error("cold access hit")
	}
	if st := c.Stats(); st.Fills != 1 || st.Evictions != 0 {
		t.Errorf("cold fill stats = %+v, want one fill and no eviction", st)
	}
	r = c.Access(0x1000)
	if !r.Hit {
		t.Error("second access missed")
	}
	r = c.Access(0x1004) // same 64B block
	if !r.Hit {
		t.Error("same-block access missed")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestColdLineZeroMisses pins the empty-frame encoding: a frame's zero
// value has tag 0, so line address 0 on a cold cache would hit if a frame
// with lastUsed == 0 counted as valid.
func TestColdLineZeroMisses(t *testing.T) {
	c := MustNew(smallConfig())
	if _, res := c.Probe(0); res {
		t.Error("cold probe of line 0 reported resident")
	}
	if frame, hit := c.AccessLine(0); hit || frame != 0 {
		t.Errorf("cold access to line 0: frame %d hit %v, want a miss filling frame 0", frame, hit)
	}
	if st := c.Stats(); st.Misses != 1 || st.Fills != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want one fill", st)
	}
	if n := c.ResidentLines(); n != 1 {
		t.Errorf("resident = %d, want 1", n)
	}
	if _, hit := c.AccessLine(0); !hit {
		t.Error("second access to line 0 missed")
	}
}

func TestSetMapping(t *testing.T) {
	c := MustNew(smallConfig()) // 8 sets, 64B blocks
	if c.SetIndex(0) != 0 {
		t.Error("addr 0 not in set 0")
	}
	if c.SetIndex(64) != 1 {
		t.Error("addr 64 not in set 1")
	}
	if c.SetIndex(64*8) != 0 {
		t.Error("addr 512 did not wrap to set 0")
	}
	if c.LineAddr(130) != 2 {
		t.Errorf("LineAddr(130) = %d, want 2", c.LineAddr(130))
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(smallConfig()) // 2-way, 8 sets
	// Three conflicting blocks in set 0: 0, 512, 1024 (block 64, 8 sets -> stride 512).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	bFrame, _ := c.Probe(b)
	r := c.Access(d)
	if r.Hit || c.Stats().Evictions != 1 {
		t.Fatalf("conflict access: %+v, stats %+v", r, c.Stats())
	}
	if r.Frame != bFrame {
		t.Errorf("filled frame %d, want b's frame %d", r.Frame, bFrame)
	}
	if _, res := c.Probe(a); !res {
		t.Error("a (MRU) was evicted")
	}
	if _, res := c.Probe(b); res {
		t.Error("b (LRU) still resident")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := MustNew(smallConfig())
	c.Access(0)
	c.Access(512)
	// Probing 0 must not refresh its recency.
	if _, res := c.Probe(0); !res {
		t.Fatal("probe missed resident line")
	}
	st := c.Stats()
	if st.Accesses != 2 {
		t.Errorf("probe counted as access: %+v", st)
	}
	c.Access(1024)
	if _, res := c.Probe(0); res {
		t.Error("probe disturbed LRU order: line 0 survived the conflict fill")
	}
	if _, res := c.Probe(512); !res {
		t.Error("probe disturbed LRU order: line 512 was evicted")
	}
	if _, res := c.Probe(99999); res {
		t.Error("probe hit absent line")
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(smallConfig())
	for i := uint64(0); i < 16; i++ {
		c.Access(i * 64)
	}
	if c.ResidentLines() != 16 {
		t.Fatalf("resident = %d, want 16", c.ResidentLines())
	}
	c.Flush()
	if c.ResidentLines() != 0 {
		t.Errorf("resident after flush = %d", c.ResidentLines())
	}
	if !c.Access(0).Hit == false {
		t.Error("flushed line still hit")
	}
}

func TestFrameIdentity(t *testing.T) {
	c := MustNew(smallConfig())
	r1 := c.Access(64) // set 1
	if r1.Frame != r1.Set*2+r1.Way {
		t.Errorf("frame %d != set*assoc+way", r1.Frame)
	}
	r2 := c.Access(64)
	if r2.Frame != r1.Frame {
		t.Error("re-access moved frames")
	}
}

func TestStatsConservation(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(smallConfig())
		n := int(nRaw)%2000 + 1
		for i := 0; i < n; i++ {
			c.Access(uint64(rng.Intn(64)) * 64)
		}
		st := c.Stats()
		if st.Accesses != st.Hits+st.Misses {
			return false
		}
		if st.Misses != st.Fills+st.Evictions {
			return false
		}
		return st.Accesses == uint64(n) && c.ResidentLines() <= c.Config().NumLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLRUStackProperty: with a fixed access stream, a larger-associativity
// LRU cache of the same set count hits at least as often (inclusion
// property of LRU stacks per set).
func TestLRUStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(assoc int) *Cache {
			return MustNew(Config{
				Name: "p", SizeBytes: 64 * 8 * assoc, BlockBytes: 64,
				Assoc: assoc, HitLatency: 1,
			})
		}
		small, big := mk(2), mk(4) // both 8 sets
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(128)) * 64
			small.Access(addr)
			big.Access(addr)
		}
		return big.Stats().Hits >= small.Stats().Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty miss rate not 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("miss rate = %g", s.MissRate())
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := MustNew(Config{Name: "b", SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 2, HitLatency: 1})
	c.Access(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0)
	}
}

func BenchmarkAccessMixed(b *testing.B) {
	c := MustNew(Config{Name: "b", SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 2, HitLatency: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%4096) * 64)
	}
}
