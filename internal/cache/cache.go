// Package cache implements the set-associative caches and translation
// look-aside buffers of the processor model (Figure 3: L1 instruction and
// data caches, I/D TLBs).
//
// In the paper these structures are excluded from fault injection (they are
// straightforwardly protected by parity/ECC, Section 4.2) but they matter in
// two other ways: their miss latencies shape the timing model, and cache/TLB
// misses are candidate soft-error symptoms the paper discusses in Section
// 3.3 — frequent enough in error-free runs to make poor detectors, which the
// symptom-tuning example demonstrates quantitatively.
package cache

// Config describes one cache or TLB.
type Config struct {
	// SetBits is log2 of the number of sets.
	SetBits int
	// Ways is the associativity.
	Ways int
	// LineBits is log2 of the line size in bytes (page size for TLBs).
	LineBits int
	// HitLatency and MissLatency are in cycles.
	HitLatency  int
	MissLatency int
}

// Cache is a set-associative cache model with LRU replacement. It tracks
// tags only — data always comes from the backing memory image — because the
// simulators need hit/miss behaviour and timing, not a second copy of
// memory.
type Cache struct {
	cfg     Config
	sets    uint64
	entries []entry

	accesses uint64
	misses   uint64
}

type entry struct {
	valid bool
	tag   uint64
	lru   uint32
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	sets := uint64(1) << cfg.SetBits
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		entries: make([]entry, int(sets)*cfg.Ways),
	}
}

// DefaultL1I is a 32 KiB, 2-way, 64-byte-line instruction cache.
func DefaultL1I() Config {
	return Config{SetBits: 8, Ways: 2, LineBits: 6, HitLatency: 1, MissLatency: 12}
}

// DefaultL1D is a 32 KiB, 4-way, 64-byte-line data cache.
func DefaultL1D() Config {
	return Config{SetBits: 7, Ways: 4, LineBits: 6, HitLatency: 2, MissLatency: 14}
}

// DefaultL2 is a 512 KiB, 8-way unified second-level cache; its miss
// latency is the trip to main memory.
func DefaultL2() Config {
	return Config{SetBits: 10, Ways: 8, LineBits: 6, HitLatency: 12, MissLatency: 80}
}

// DefaultITLB is a 64-entry fully-associative-ish (16x4) instruction TLB
// over 8 KiB pages.
func DefaultITLB() Config {
	return Config{SetBits: 4, Ways: 4, LineBits: 13, HitLatency: 0, MissLatency: 20}
}

// DefaultDTLB is a 128-entry data TLB over 8 KiB pages.
func DefaultDTLB() Config {
	return Config{SetBits: 5, Ways: 4, LineBits: 13, HitLatency: 0, MissLatency: 20}
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	line := addr >> c.cfg.LineBits
	return line & (c.sets - 1), line >> c.cfg.SetBits
}

// Access looks up addr, fills on miss, and returns whether it hit and the
// access latency in cycles.
func (c *Cache) Access(addr uint64) (hit bool, latency int) {
	c.accesses++
	setIdx, tag := c.index(addr)
	set := c.entries[int(setIdx)*c.cfg.Ways : int(setIdx+1)*c.cfg.Ways]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.touch(set, i)
			return true, c.cfg.HitLatency
		}
	}
	c.misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru > set[victim].lru {
			victim = i
		}
	}
	set[victim] = entry{valid: true, tag: tag}
	c.touch(set, victim)
	return false, c.cfg.MissLatency
}

// Probe looks up addr without filling or updating statistics.
func (c *Cache) Probe(addr uint64) bool {
	setIdx, tag := c.index(addr)
	set := c.entries[int(setIdx)*c.cfg.Ways : int(setIdx+1)*c.cfg.Ways]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *Cache) touch(set []entry, mru int) {
	set[mru].lru = 0
	for j := range set {
		if j != mru && set[j].valid {
			set[j].lru++
		}
	}
}

// CopyFrom makes c an exact copy of src (contents and statistics), reusing
// c's entry array when the geometries match. Campaigns fork warmed-up
// pipelines, so cache state must be copyable: a fork is a fresh Cache (or a
// retired one from the clone pool) re-imaged by CopyFrom.
func (c *Cache) CopyFrom(src *Cache) {
	c.cfg = src.cfg
	c.sets = src.sets
	c.accesses = src.accesses
	c.misses = src.misses
	//restorelint:allowalloc -- fresh receiver only; the clone pool re-images identically-shaped caches
	c.entries = append(c.entries[:0], src.entries...)
}

// Reset invalidates all entries and clears statistics.
func (c *Cache) Reset() {
	for i := range c.entries {
		c.entries[i] = entry{}
	}
	c.accesses = 0
	c.misses = 0
}

// Stats returns accesses and misses since the last Reset.
func (c *Cache) Stats() (accesses, misses uint64) {
	return c.accesses, c.misses
}

// MissRate returns the miss ratio (0 when no accesses were made).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}
