// Package cache models the on-chip memory system timing: set-associative
// write-back caches with LRU replacement, TLBs, a shared L2, a memory bus
// with occupancy, and a fixed main-memory latency. It matches the
// configuration in the paper's §5: 32KB 2-way L1 instruction and data
// caches, 64-entry 4-way TLBs, a 1MB 4-way L2, 100-cycle memory, and a
// 32-byte bus running at 1/4 the processor frequency.
//
// The caches are timing-only: data lives in internal/mem; these structures
// keep each set's line addresses, dirty bits and recency order, and report
// latencies.
package cache

import "math/bits"

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency int // cycles
}

// Stats counts accesses for one cache.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64 // dirty lines this cache evicted to the next level
	// WritebackFills counts lines installed by writebacks arriving from an
	// upper-level cache. They are tracked separately from Accesses/Misses
	// so victim traffic does not inflate demand miss rates.
	WritebackFills uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// A way is one word: the line address of the line it holds, with the
// valid and dirty flags in the two low bits that a line of at least 4
// bytes leaves free. 0 is an invalid way.
const (
	valid uint64 = 1
	dirty uint64 = 2
)

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
//
// Ways are stored flat — set s occupies ways[s*assoc : (s+1)*assoc] — so
// one allocation backs the whole cache, and each set is kept in recency
// order, most recently used first. A hit moves its way to the front; a
// fill shifts the set down one and writes the front, so the victim is
// always the last way. Invalid ways sink to the back, where a fill takes
// one before it evicts a valid line. The set index comes from a
// precomputed shift and mask (no division on the access path).
type Cache struct {
	cfg      Config
	ways     []uint64
	assoc    int
	setShift uint
	setMask  uint64
	stats    Stats
}

// New builds a cache from cfg. The line size and the set count must be
// powers of two, the line at least 4 bytes.
func New(cfg Config) *Cache {
	if cfg.LineBytes < 4 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a power of two of at least 4 bytes")
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Assoc
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	return &Cache{
		cfg:      cfg,
		ways:     make([]uint64, nLines),
		assoc:    cfg.Assoc,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(nSets - 1),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// LineBase returns the line-aligned base of addr.
func (c *Cache) LineBase(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// AccessResult describes the outcome of a cache probe.
type AccessResult struct {
	Hit          bool
	WritebackReq bool   // an evicted dirty line must go to the next level
	VictimValid  bool   // a valid line (clean or dirty) was evicted
	VictimAddr   uint64 // line address of the evicted line if VictimValid
}

// Access probes the cache for addr, allocating on miss and applying LRU
// update. write marks the line dirty. The caller stitches latencies
// together (see Hierarchy).
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.stats.Accesses++
	return c.access(addr, write, true)
}

// Writeback installs a dirty line evicted from an upper-level cache. It
// behaves like a write Access but is accounted as writeback traffic
// (Stats.WritebackFills) rather than a demand access, so victim drains do
// not distort this cache's demand miss rate.
func (c *Cache) Writeback(addr uint64) AccessResult {
	c.stats.WritebackFills++
	return c.access(addr, true, false)
}

// WritebackClean installs a clean line evicted from an upper-level cache
// (victim inclusion). Like Writeback it is accounted as a writeback
// fill, not a demand access, but the installed line stays clean: the
// upper level never modified it, so it must not later drain to memory as
// spurious writeback traffic.
func (c *Cache) WritebackClean(addr uint64) AccessResult {
	c.stats.WritebackFills++
	return c.access(addr, false, false)
}

// set returns the ways of addr's set and addr's way word, valid and
// clean.
func (c *Cache) set(addr uint64) ([]uint64, uint64) {
	base := int((addr>>c.setShift)&c.setMask) * c.assoc
	return c.ways[base : base+c.assoc], c.LineBase(addr) | valid
}

// access is the shared probe/allocate path; demand selects whether a miss
// counts in the demand statistics.
func (c *Cache) access(addr uint64, write, demand bool) AccessResult {
	ways, key := c.set(addr)
	if write {
		key |= dirty
	}
	for i, w := range ways {
		if (w^key)&^dirty == 0 {
			push(ways[:i+1], w|key)
			return AccessResult{Hit: true}
		}
	}
	if demand {
		c.stats.Misses++
	}
	res := AccessResult{}
	if v := push(ways, key); v != 0 {
		res.VictimValid = true
		res.VictimAddr = v &^ (valid | dirty)
		if v&dirty != 0 {
			res.WritebackReq = true
			c.stats.Writebacks++
		}
	}
	return res
}

// push writes w at the front of ways, shifting the others down one, and
// returns the way shifted out of the back. It is an explicit loop: a set
// has a handful of ways, too few for copy's memmove to pay.
func push(ways []uint64, w uint64) uint64 {
	for i := range ways {
		ways[i], w = w, ways[i]
	}
	return w
}

// Probe reports whether addr hits without updating state (used in tests).
func (c *Cache) Probe(addr uint64) bool {
	ways, key := c.set(addr)
	for _, w := range ways {
		if (w^key)&^dirty == 0 {
			return true
		}
	}
	return false
}

// Flush invalidates all lines (contents, not stats).
func (c *Cache) Flush() {
	clear(c.ways)
}

// Reset returns the cache to its post-New state: all lines invalid and
// statistics cleared. Recency lives in the order of each set's ways, so
// a recycled cache replays replacement decisions exactly like a fresh
// one.
func (c *Cache) Reset() {
	c.Flush()
	c.stats = Stats{}
}

// TLB is a set-associative translation lookaside buffer over page numbers.
type TLB struct {
	inner *Cache
}

// NewTLB builds a TLB with the given entry count and associativity.
func NewTLB(entries, assoc, pageBytes int) *TLB {
	// Reuse the cache structure: one "line" per page.
	return &TLB{inner: New(Config{
		Name:      "tlb",
		SizeBytes: entries * pageBytes,
		LineBytes: pageBytes,
		Assoc:     assoc,
	})}
}

// Lookup probes the TLB for the page containing addr; a miss fills it.
func (t *TLB) Lookup(addr uint64) bool {
	return t.inner.Access(addr, false).Hit
}

// Stats returns TLB statistics.
func (t *TLB) Stats() Stats { return t.inner.Stats() }

// Reset invalidates all translations and clears statistics (see
// Cache.Reset).
func (t *TLB) Reset() { t.inner.Reset() }
