// Package cache models the on-chip memory system timing: set-associative
// write-back caches with LRU replacement, TLBs, a shared L2, a memory bus
// with occupancy, and a fixed main-memory latency. It matches the
// configuration in the paper's §5: 32KB 2-way L1 instruction and data
// caches, 64-entry 4-way TLBs, a 1MB 4-way L2, 100-cycle memory, and a
// 32-byte bus running at 1/4 the processor frequency.
//
// The caches are timing-only: data lives in internal/mem; these structures
// track tags and report latencies.
package cache

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

type line struct {
	tag   uint64
	lru   uint64 // larger = more recently used; valid lines are >= 1
	valid bool
	dirty bool
}

// Cache is a set-associative, write-back, write-allocate cache.
//
// Lines are stored flat — way w of set s lives at lines[s*assoc+w] — so
// one allocation backs the whole cache and an access touches a single
// contiguous slice of ways. Set index and tag come from precomputed
// shifts/masks (no division on the access path), and recency is a
// monotonic clock stamped per access: valid lines always carry lru >= 1,
// which lets the victim scan treat 0 as "invalid way here" and fuse the
// tag match and victim selection into one pass.
type Cache struct {
	cfg      Config
	lines    []line
	assoc    int
	setShift uint
	tagShift uint
	setMask  uint64
	lruClock uint64
	stats    Stats
}

// New builds a cache from cfg. Sizes must be powers of two.
func New(cfg Config) *Cache {
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Assoc
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	setBits := uint(0)
	for 1<<setBits < nSets {
		setBits++
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nLines),
		assoc:    cfg.Assoc,
		setShift: shift,
		tagShift: shift + setBits,
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

// access is the shared probe/allocate path; demand selects whether a miss
// counts in the demand statistics. One fused pass over the set's ways
// answers both questions an access asks — "is the tag here?" and "which
// way would I evict?" — so a miss pays no second scan.
func (c *Cache) access(addr uint64, write, demand bool) AccessResult {
	if c.lruClock == ^uint64(0) {
		// The clock saturated (2^64 accesses — unreachable in practice but
		// cheap to be correct about): compact recency once instead of
		// renormalizing per access.
		c.renormalize()
	}
	c.lruClock++
	base := int((addr>>c.setShift)&c.setMask) * c.assoc
	tag := addr >> c.tagShift
	ways := c.lines[base : base+c.assoc]
	// Victim selection needs no validity branch: invalid ways always
	// carry lru == 0 while valid lines are stamped >= 1, so the min-lru
	// scan prefers the first invalid way all by itself.
	victim, victimLRU := 0, ^uint64(0)
	for i := range ways {
		w := &ways[i]
		if w.valid && w.tag == tag {
			w.lru = c.lruClock
			if write {
				w.dirty = true
			}
			return AccessResult{Hit: true}
		}
		if w.lru < victimLRU {
			victim, victimLRU = i, w.lru
		}
	}
	if demand {
		c.stats.Misses++
	}
	res := AccessResult{}
	v := &ways[victim]
	if v.valid {
		res.VictimValid = true
		res.VictimAddr = v.tag<<c.tagShift | uint64(base/c.assoc)<<c.setShift
		if v.dirty {
			res.WritebackReq = true
			c.stats.Writebacks++
		}
	}
	*v = line{tag: tag, valid: true, dirty: write, lru: c.lruClock}
	return res
}

// renormalize compacts the recency clock. LRU comparisons only ever
// happen between ways of one set, so each set's valid ways are restamped
// with their rank (1..assoc) and the clock restarts just above the
// largest stamp — relative order inside every set is preserved and the
// clock always collapses, regardless of how stale the oldest line is.
// Called only when the clock saturates, never per access.
func (c *Cache) renormalize() {
	old := make([]uint64, c.assoc)
	for base := 0; base < len(c.lines); base += c.assoc {
		ways := c.lines[base : base+c.assoc]
		for i := range ways {
			old[i] = ways[i].lru
		}
		for i := range ways {
			if !ways[i].valid {
				continue
			}
			rank := uint64(1)
			for j := range ways {
				if j != i && ways[j].valid && (old[j] < old[i] ||
					(old[j] == old[i] && j < i)) {
					rank++
				}
			}
			ways[i].lru = rank
		}
	}
	c.lruClock = uint64(c.assoc)
}

// Probe reports whether addr hits without updating state (used in tests).
func (c *Cache) Probe(addr uint64) bool {
	base := int((addr>>c.setShift)&c.setMask) * c.assoc
	tag := addr >> c.tagShift
	for _, w := range c.lines[base : base+c.assoc] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates all lines (contents, not stats). The flattened
// backing store is zeroed wholesale, including each line's lru stamp, so
// no stale recency survives into the next fill.
func (c *Cache) Flush() {
	clear(c.lines)
}

// Reset returns the cache to its post-New state: all lines invalid,
// statistics cleared, and the LRU clock rezeroed so a recycled cache's
// replacement decisions replay exactly like a fresh one's (a clock left
// near saturation would renormalize at a different access than a fresh
// cache would).
func (c *Cache) Reset() {
	c.Flush()
	c.lruClock = 0
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

// Reset invalidates all translations and clears statistics and the LRU
// clock (see Cache.Reset).
func (t *TLB) Reset() { t.inner.Reset() }
