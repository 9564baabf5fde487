package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestHitAfterFill(t *testing.T) {
	c := New(Config{SetBits: 4, Ways: 2, LineBits: 6, HitLatency: 1, MissLatency: 10})
	hit, lat := c.Access(0x1000)
	if hit || lat != 10 {
		t.Errorf("cold access = %v,%d want miss,10", hit, lat)
	}
	hit, lat = c.Access(0x1000)
	if !hit || lat != 1 {
		t.Errorf("second access = %v,%d want hit,1", hit, lat)
	}
	// Same line, different offset.
	if hit, _ := c.Access(0x103F); !hit {
		t.Error("same-line access missed")
	}
	// Next line misses.
	if hit, _ := c.Access(0x1040); hit {
		t.Error("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{SetBits: 2, Ways: 2, LineBits: 6})
	// Three addresses in the same set: set stride = 4 sets * 64 B.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a)
	c.Access(b)
	c.Access(a) // b becomes LRU
	c.Access(d) // evicts b
	if !c.Probe(a) {
		t.Error("MRU line evicted")
	}
	if c.Probe(b) {
		t.Error("LRU line survived")
	}
	if !c.Probe(d) {
		t.Error("filled line absent")
	}
}

func TestProbeDoesNotFill(t *testing.T) {
	c := New(DefaultL1D())
	if c.Probe(0x4000) {
		t.Error("cold probe hit")
	}
	if hit, _ := c.Access(0x4000); hit {
		t.Error("probe must not have filled the line")
	}
	acc, miss := c.Stats()
	if acc != 1 || miss != 1 {
		t.Errorf("stats = %d,%d; probe should not count", acc, miss)
	}
}

func TestStatsAndReset(t *testing.T) {
	c := New(DefaultL1I())
	for i := 0; i < 100; i++ {
		c.Access(uint64(i) * 64)
	}
	for i := 0; i < 100; i++ {
		c.Access(uint64(i) * 64)
	}
	acc, miss := c.Stats()
	if acc != 200 || miss != 100 {
		t.Errorf("stats = %d,%d want 200,100", acc, miss)
	}
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v", got)
	}
	c.Reset()
	if acc, miss = c.Stats(); acc != 0 || miss != 0 {
		t.Error("reset did not clear stats")
	}
	if c.MissRate() != 0 {
		t.Error("miss rate after reset should be 0")
	}
	if c.Probe(0) {
		t.Error("reset did not invalidate entries")
	}
}

func TestTLBPageGranularity(t *testing.T) {
	tlb := New(DefaultITLB())
	tlb.Access(0x2000) // page 1 (8 KiB pages)
	if hit, _ := tlb.Access(0x3FFF); !hit {
		t.Error("same-page access missed")
	}
	if hit, _ := tlb.Access(0x4000); hit {
		t.Error("next-page access hit")
	}
}

func TestWorkingSetBehaviour(t *testing.T) {
	// A working set that fits must converge to ~zero misses; one that
	// vastly exceeds capacity must keep missing. This is the property the
	// timing model and the cache-miss-symptom analysis rely on.
	c := New(Config{SetBits: 4, Ways: 2, LineBits: 6, MissLatency: 10}) // 2 KiB
	rng := rand.New(rand.NewSource(1))

	// Fits: 16 lines in 32-line cache.
	for i := 0; i < 1000; i++ {
		c.Access(uint64(rng.Intn(16)) * 64)
	}
	c2 := New(Config{SetBits: 4, Ways: 2, LineBits: 6, MissLatency: 10})
	warm := 0
	for i := 0; i < 1000; i++ {
		addr := uint64(rng.Intn(16)) * 64
		if hit, _ := c2.Access(addr); hit {
			warm++
		}
	}
	if warm < 900 {
		t.Errorf("small working set hit only %d/1000", warm)
	}

	// Thrashes: 4096 lines through a 32-line cache.
	c3 := New(Config{SetBits: 4, Ways: 2, LineBits: 6, MissLatency: 10})
	hits := 0
	for i := 0; i < 1000; i++ {
		addr := uint64(rng.Intn(4096)) * 64
		if hit, _ := c3.Access(addr); hit {
			hits++
		}
	}
	if hits > 100 {
		t.Errorf("huge working set hit %d/1000; cache too forgiving", hits)
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	for _, cfg := range []Config{DefaultL1I(), DefaultL1D(), DefaultITLB(), DefaultDTLB()} {
		if cfg.Ways <= 0 || cfg.SetBits < 0 || cfg.MissLatency <= cfg.HitLatency {
			t.Errorf("bad default config %+v", cfg)
		}
		New(cfg).Access(0) // must not panic
	}
}

// CopyFrom is the only way a cache is copied: into a fresh value (a new
// pipeline Clone) and into a dirtied one of the same shape (a recycled
// fork). Each copy must equal its source field for field, statistics
// included, and accesses to the copy must leave the source unchanged.
func TestCopyFrom(t *testing.T) {
	cfg := Config{SetBits: 3, Ways: 2, LineBits: 6, HitLatency: 1, MissLatency: 10}
	build := func() *Cache {
		c := New(cfg)
		for a := uint64(0); a < 40; a++ {
			c.Access(a * 0x48)
		}
		return c
	}
	mutate := func(c *Cache) {
		for a := uint64(0); a < 40; a++ {
			c.Access(0x10000 + a*0x100)
		}
	}
	dirty := build()
	mutate(dirty)
	for _, dst := range []*Cache{new(Cache), dirty} {
		src := build()
		dst.CopyFrom(src)
		if !reflect.DeepEqual(dst, src) {
			t.Errorf("copy differs from its source:\n got %+v\nwant %+v", *dst, *src)
		}
		mutate(dst)
		if !reflect.DeepEqual(src, build()) {
			t.Error("accesses to the copy changed the source")
		}
	}
}
