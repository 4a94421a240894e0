package cache

import (
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(Config{Name: "t", SizeBytes: 512, LineBytes: 64, Assoc: 2, HitLatency: 1})
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000, false).Hit {
		t.Error("cold access should miss")
	}
	if !c.Access(0x1000, false).Hit {
		t.Error("second access should hit")
	}
	if !c.Access(0x103F, false).Hit {
		t.Error("same line should hit")
	}
	if c.Access(0x1040, false).Hit {
		t.Error("next line should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache() // 2 ways per set
	// Three distinct lines mapping to set 0 (set index bits are addr[7:6],
	// 4 sets): stride 256 keeps the set fixed.
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("a should survive")
	}
	if c.Probe(b) {
		t.Error("b should be evicted")
	}
	if !c.Probe(d) {
		t.Error("d should be present")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := smallCache()
	c.Access(0x0000, true) // dirty
	c.Access(0x0100, false)
	res := c.Access(0x0200, false) // evicts 0x0000
	if !res.WritebackReq {
		t.Fatal("expected writeback of dirty victim")
	}
	if res.VictimAddr != 0x0000 {
		t.Errorf("victim addr = %#x, want 0", res.VictimAddr)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestWritebackAccounting(t *testing.T) {
	c := smallCache()
	// A writeback install is not a demand access: it allocates and dirties
	// the line but leaves Accesses/Misses untouched.
	res := c.Writeback(0x0000)
	if res.Hit {
		t.Error("cold writeback install should not report a hit")
	}
	s := c.Stats()
	if s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("writeback polluted demand stats: %+v", s)
	}
	if s.WritebackFills != 1 {
		t.Errorf("writeback fills = %d, want 1", s.WritebackFills)
	}
	// The installed line is dirty: evicting it requests a writeback.
	c.Access(0x0100, false)
	if res := c.Access(0x0200, false); !res.WritebackReq || res.VictimAddr != 0 {
		t.Errorf("evicting a writeback-installed line = %+v, want dirty victim 0x0", res)
	}
	// A writeback hitting a resident line just dirties it.
	c.Access(0x1000, false)
	if res := c.Writeback(0x1000); !res.Hit {
		t.Error("writeback to resident line should hit")
	}
	if got := c.Stats().WritebackFills; got != 2 {
		t.Errorf("writeback fills = %d, want 2", got)
	}
}

// TestDataVictimWritebackBus: the unified-engine contract on the data
// side. An L1 dirty victim is buffered during the L2 demand probe
// (demand-first ordering — the PR-2 install-first ordering this test's
// predecessor pinned is retired), then installs into L2 as writeback
// traffic; the demand miss's own dirty L2 victim occupies the bus, and
// the victim install never counts as an L2 demand access.
func TestDataVictimWritebackBus(t *testing.T) {
	// A direct-mapped L1 (8 sets, stride 512) over a smaller direct-mapped
	// L2 (4 sets, stride 256) lets an address conflict in L2 without
	// conflicting in L1, so an L1 line can outlive its L2 copy.
	cfg := DefaultConfig()
	cfg.L1D = Config{Name: "L1D", SizeBytes: 512, LineBytes: 64, Assoc: 1, HitLatency: 3}
	cfg.L2 = Config{Name: "L2", SizeBytes: 256, LineBytes: 64, Assoc: 1, HitLatency: 12}
	h := NewHierarchy(cfg)

	h.DataLatency(0x000, true, 0)  // A: dirty in L1 set 0 and L2 set 0
	h.DataLatency(0x100, true, 50) // D: L1 set 4; in L2 evicts A, leaves D dirty in set 0
	l2Before := h.L2.Stats()
	busBefore := h.BusBusyCycles

	// B (0x200) maps to L1 set 0 and L2 set 0. Its L1 miss evicts dirty A.
	// Demand first: B's L2 probe misses and evicts dirty D (bus). Only
	// then does buffered A install into L2 — displacing the just-filled
	// clean B copy (B stays in L1), with no bus transfer of its own. B's
	// fill from memory is the second bus transfer.
	h.DataLatency(0x200, false, 100)

	l2 := h.L2.Stats()
	if got := l2.WritebackFills - l2Before.WritebackFills; got != 1 {
		t.Errorf("L2 writeback fills delta = %d, want 1", got)
	}
	if got := l2.Accesses - l2Before.Accesses; got != 1 {
		t.Errorf("L2 demand accesses delta = %d, want 1 (victim install must not count)", got)
	}
	if got := l2.Misses - l2Before.Misses; got != 1 {
		t.Errorf("L2 demand misses delta = %d, want 1 (victim install must not count)", got)
	}
	if got := l2.Writebacks - l2Before.Writebacks; got != 1 {
		t.Errorf("L2 writebacks delta = %d, want 1 (only dirty D drains)", got)
	}
	// Two bus transfers: D's drain and B's fill. Under the retired
	// install-first ordering this was three — A's install ran before the
	// demand probe, so B's demand miss evicted freshly installed dirty A
	// for an extra drain.
	transfer := h.lineTransferCycles()
	if got := h.BusBusyCycles - busBefore; got != 2*transfer {
		t.Errorf("bus busy delta = %d, want %d (victim install not buffered demand-first?)", got, 2*transfer)
	}
	// Demand-first leaves the victim as the set's final owner: A is
	// L2-resident, and a reload of A hits L2 under B in L1 set 0.
	if !h.L2.Probe(0x000) {
		t.Error("dirty victim A not L2-resident after install")
	}
	if lat := h.DataLatency(0x000, false, 1000); lat != uint64(cfg.L1D.HitLatency+cfg.L2.HitLatency) {
		t.Errorf("reload of victim = %d cycles, want L2 hit", lat)
	}
}

// TestDataVictimInclusion: the data side now includes *clean* L1D victims
// too — the unified engine's full-inclusion policy. A read-mostly line
// whose L2 copy died to an I-side conflict re-enters L2 when L1D evicts
// it, so reloading it costs an L2 hit instead of a memory round trip
// (previously clean D-victims were presumed L2-resident and dropped,
// understating L2 hits for read-mostly sets).
func TestDataVictimInclusion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1I = Config{Name: "L1I", SizeBytes: 128, LineBytes: 64, Assoc: 1, HitLatency: 1}
	cfg.L1D = Config{Name: "L1D", SizeBytes: 128, LineBytes: 64, Assoc: 1, HitLatency: 3}
	cfg.L2 = Config{Name: "L2", SizeBytes: 256, LineBytes: 64, Assoc: 1, HitLatency: 12}
	h := NewHierarchy(cfg)

	const (
		a = 0x1000 // L1D set 0, L2 set 0
		b = 0x1080 // L1D set 0, L2 set 2
		d = 0x1100 // L2 set 0 (instruction side)
	)
	h.DataLatency(a, false, 0) // A: clean in L1D and L2
	h.FetchLatency(d, 50)      // D: evicts A's L2 copy from the I side

	l2AtEvict := h.L2.Stats()
	h.DataLatency(b, false, 100) // evicts clean A from L1D: must re-enter L2

	l2 := h.L2.Stats()
	if got := l2.WritebackFills - l2AtEvict.WritebackFills; got != 1 {
		t.Errorf("L2 writeback fills delta = %d, want 1 (clean D-victim dropped?)", got)
	}
	if got := l2.Accesses - l2AtEvict.Accesses; got != 1 {
		t.Errorf("L2 demand accesses delta = %d, want 1 (victim install must not count)", got)
	}

	// The reload of A misses L1D (B owns the set) but hits L2.
	l2Before := h.L2.Stats()
	lat := h.DataLatency(a, false, 1000)
	if want := uint64(cfg.L1D.HitLatency + cfg.L2.HitLatency); lat != want {
		t.Errorf("reload latency = %d, want %d (clean-victim inclusion missing)", lat, want)
	}
	if got := h.L2.Stats().Misses - l2Before.Misses; got != 0 {
		t.Errorf("reload L2 misses delta = %d, want 0", got)
	}
	// The clean victim must not have been installed dirty: evicting A's L2
	// line again must not request a memory writeback.
	h.FetchLatency(0x1200, 2000)
	if got := h.L2.Stats().Writebacks - l2Before.Writebacks; got != 0 {
		t.Errorf("L2 writebacks delta = %d, want 0 (clean D-victim installed dirty)", got)
	}
}

// TestDataVictimOrdering mirrors TestFetchVictimOrdering on the data
// side: the L1D victim is buffered and installed into L2 only after the
// demand lookup, so a victim sharing the demand line's L2 set cannot
// displace the very line being loaded.
func TestDataVictimOrdering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1D = Config{Name: "L1D", SizeBytes: 128, LineBytes: 64, Assoc: 1, HitLatency: 3}
	cfg.L2 = Config{Name: "L2", SizeBytes: 256, LineBytes: 64, Assoc: 1, HitLatency: 12}
	h := NewHierarchy(cfg)

	// A (0x1000) and Y (0x1100) share L1D set 0 AND L2 set 0.
	h.DataLatency(0x1000, false, 0)   // A resident in L1D and L2
	h.DataLatency(0x1100, false, 100) // Y takes L1D set 0; its victim A ends up owning L2 set 0
	// Reload A: L1D miss (Y owns the set). The demand must hit L2 before
	// Y's victim install touches the set.
	l2Before := h.L2.Stats()
	lat := h.DataLatency(0x1000, false, 1000)
	if want := uint64(cfg.L1D.HitLatency + cfg.L2.HitLatency); lat != want {
		t.Errorf("reload latency = %d, want %d (victim install displaced the demand line)", lat, want)
	}
	if got := h.L2.Stats().Misses - l2Before.Misses; got != 0 {
		t.Errorf("reload L2 misses delta = %d, want 0", got)
	}
}

// TestFetchVictimInclusion: an L1I victim must be installed into L2 the
// way DataLatency installs L1D victims, so a later refetch of recently
// evicted instructions hits L2 instead of going to memory. Previously
// FetchLatency dropped the victim on the floor, overstating L2
// instruction-refetch misses on every backend's fetch-side numbers; and
// the victim install's own dirty L2 victim must occupy the bus.
func TestFetchVictimInclusion(t *testing.T) {
	// A tiny direct-mapped L1I (2 sets) over a direct-mapped L2 (4 sets):
	// A and B conflict in L1I but not in L2, while D conflicts with A in
	// L2 only, so A's L2 copy can die while its L1I copy is still live.
	cfg := DefaultConfig()
	cfg.L1I = Config{Name: "L1I", SizeBytes: 128, LineBytes: 64, Assoc: 1, HitLatency: 1}
	cfg.L1D = Config{Name: "L1D", SizeBytes: 128, LineBytes: 64, Assoc: 1, HitLatency: 3}
	cfg.L2 = Config{Name: "L2", SizeBytes: 256, LineBytes: 64, Assoc: 1, HitLatency: 12}
	h := NewHierarchy(cfg)

	const (
		a = 0x1000 // L1I set 0, L2 set 0
		b = 0x1080 // L1I set 0, L2 set 2
		d = 0x1100 // L2 set 0 (data side)
	)
	h.FetchLatency(a, 0)       // A: resident in L1I and L2
	h.DataLatency(d, true, 50) // D: evicts A's L2 copy, leaves D dirty in L2 set 0

	l2AtEvict := h.L2.Stats()
	busAtEvict := h.BusBusyCycles
	h.FetchLatency(b, 100) // evicts A from L1I: the victim must re-enter L2

	l2 := h.L2.Stats()
	if got := l2.WritebackFills - l2AtEvict.WritebackFills; got != 1 {
		t.Errorf("L2 writeback fills delta = %d, want 1 (I-side victim dropped?)", got)
	}
	// Two bus transfers: dirty D's drain (evicted by A's victim install)
	// and B's own fill from memory.
	transfer := h.lineTransferCycles()
	if got := h.BusBusyCycles - busAtEvict; got != 2*transfer {
		t.Errorf("bus busy delta = %d, want %d (dropped dirty L2 victim?)", got, 2*transfer)
	}
	// A's victim install is writeback traffic, not an L2 demand access.
	if got := l2.Accesses - l2AtEvict.Accesses; got != 1 {
		t.Errorf("L2 demand accesses delta = %d, want 1 (victim install must not count)", got)
	}

	// The refetch of A now misses L1I (B owns the set) but hits L2.
	l2Before := h.L2.Stats()
	lat := h.FetchLatency(a, 1000)
	if want := uint64(cfg.L1I.HitLatency + cfg.L2.HitLatency); lat != want {
		t.Errorf("refetch latency = %d, want %d (L2 I-refetch miss overstated)", lat, want)
	}
	if got := h.L2.Stats().Misses - l2Before.Misses; got != 0 {
		t.Errorf("refetch L2 misses delta = %d, want 0", got)
	}
	// The clean victim must not have been installed dirty: another L2 set-0
	// conflict on the fetch side evicts A's L2 line again, and that must
	// not request a memory writeback (instruction lines are never dirty).
	h.FetchLatency(0x1200, 2000)
	if got := h.L2.Stats().Writebacks - l2Before.Writebacks; got != 0 {
		t.Errorf("L2 writebacks delta = %d, want 0 (clean I-victim installed dirty)", got)
	}
}

// TestFetchVictimOrdering: the L1I victim is buffered and installed into
// L2 only after the demand lookup. Installing it first would evict the
// very line being fetched whenever victim and demand share an L2 set,
// manufacturing exactly the refetch miss victim inclusion exists to
// avoid.
func TestFetchVictimOrdering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1I = Config{Name: "L1I", SizeBytes: 128, LineBytes: 64, Assoc: 1, HitLatency: 1}
	cfg.L2 = Config{Name: "L2", SizeBytes: 256, LineBytes: 64, Assoc: 1, HitLatency: 12}
	h := NewHierarchy(cfg)

	// A (0x1000) and Y (0x1100) share L1I set 0 AND L2 set 0.
	h.FetchLatency(0x1000, 0)   // A resident in L1I and L2
	h.FetchLatency(0x1100, 100) // Y takes L1I set 0; its victim A ends up owning L2 set 0
	// Refetch A: L1I miss (Y owns the set). The demand must hit L2 before
	// Y's victim install touches the set.
	l2Before := h.L2.Stats()
	lat := h.FetchLatency(0x1000, 1000)
	if want := uint64(cfg.L1I.HitLatency + cfg.L2.HitLatency); lat != want {
		t.Errorf("refetch latency = %d, want %d (victim install displaced the demand line)", lat, want)
	}
	if got := h.L2.Stats().Misses - l2Before.Misses; got != 0 {
		t.Errorf("refetch L2 misses delta = %d, want 0", got)
	}
}

func TestVictimAddrReconstruction(t *testing.T) {
	// Property: after a dirty line at addr X is evicted, the reported
	// victim address has the same set index and reconstructs X's line base.
	f := func(raw uint64) bool {
		c := smallCache()
		x := (raw % (1 << 30)) &^ 63
		c.Access(x, true)
		// Evict by filling the set with two more lines at +256 strides.
		c.Access(x+256, false)
		res := c.Access(x+512, false)
		if !res.WritebackReq {
			return false
		}
		return res.VictimAddr == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlush(t *testing.T) {
	c := smallCache()
	c.Access(0x1000, false)
	c.Flush()
	if c.Probe(0x1000) {
		t.Error("flush should invalidate")
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4, 2, 4096)
	if tlb.Lookup(0x1000) {
		t.Error("cold TLB should miss")
	}
	if !tlb.Lookup(0x1FFF) {
		t.Error("same page should hit")
	}
	if tlb.Lookup(0x2000) {
		t.Error("different page should miss")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	cfg := h.Config()

	// Cold fetch: TLB miss + L1I + L2 + memory + bus transfer.
	lat := h.FetchLatency(0x1000, 0)
	min := uint64(cfg.TLBMissPenalty + cfg.L1I.HitLatency + cfg.L2.HitLatency + cfg.MemLatency)
	if lat < min {
		t.Errorf("cold fetch latency = %d, want >= %d", lat, min)
	}
	// Warm fetch: L1I hit only.
	lat = h.FetchLatency(0x1000, 100)
	if lat != uint64(cfg.L1I.HitLatency) {
		t.Errorf("warm fetch latency = %d, want %d", lat, cfg.L1I.HitLatency)
	}

	// Cold load.
	lat = h.DataLatency(0x80000, false, 0)
	if lat < uint64(cfg.MemLatency) {
		t.Errorf("cold load latency = %d", lat)
	}
	// Warm load: L1D hit.
	lat = h.DataLatency(0x80000, false, 200)
	if lat != uint64(cfg.L1D.HitLatency) {
		t.Errorf("warm load latency = %d, want %d", lat, cfg.L1D.HitLatency)
	}
	// L2 hit: evict from tiny... instead touch a line that lands in L2 via
	// a previous L1 eviction. Construct three addresses in the same L1 set:
	// L1D is 32KB 2-way, 64B lines -> 256 sets -> stride 16KB.
	a, b, d := uint64(0x100000), uint64(0x104000), uint64(0x108000)
	h.DataLatency(a, false, 300)
	h.DataLatency(b, false, 600)
	h.DataLatency(d, false, 900) // evicts a from L1
	lat = h.DataLatency(a, false, 1200)
	if lat != uint64(cfg.L1D.HitLatency+cfg.L2.HitLatency) {
		t.Errorf("L2 hit latency = %d, want %d", lat, cfg.L1D.HitLatency+cfg.L2.HitLatency)
	}
}

func TestBusOccupancy(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	// Two back-to-back cold misses at the same cycle contend for the bus:
	// the second should take longer than the first.
	lat1 := h.DataLatency(0x200000, false, 0)
	lat2 := h.DataLatency(0x300000, false, 0)
	if lat2 <= lat1 {
		t.Errorf("bus contention not modeled: lat1=%d lat2=%d", lat1, lat2)
	}
	if h.BusBusyCycles == 0 {
		t.Error("bus busy cycles not accumulated")
	}
}

// symmetricConfig builds a hierarchy configuration whose two sides are
// identical (same L1 geometry and latency), so the unified engine must
// produce bit-identical behavior through either port.
func symmetricConfig() HierarchyConfig {
	cfg := DefaultConfig()
	// Small caches so a modest trace generates misses, victims, dirty L2
	// evictions, and bus traffic on both sides.
	cfg.L1I = Config{Name: "L1I", SizeBytes: 512, LineBytes: 64, Assoc: 2, HitLatency: 2}
	cfg.L1D = Config{Name: "L1D", SizeBytes: 512, LineBytes: 64, Assoc: 2, HitLatency: 2}
	cfg.L2 = Config{Name: "L2", SizeBytes: 2048, LineBytes: 64, Assoc: 2, HitLatency: 12}
	return cfg
}

// TestSidesSymmetric is the unified engine's property test: the same
// address trace driven through the instruction side of one hierarchy and
// the data side of another (with symmetric configs) must produce
// identical latencies, demand miss counts, writeback fills, writebacks,
// and bus cycles. Any D-only or I-only special case in the miss path
// breaks it.
func TestSidesSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := symmetricConfig()
		hi := NewHierarchy(cfg)
		hd := NewHierarchy(cfg)
		// A skewed synthetic trace: a few hot lines, a conflict-heavy
		// stride, and occasional far jumps. Reads only — fetches cannot
		// write, so the symmetric trace must not either.
		x := seed | 1
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			x = xorshift(x)
			var addr uint64
			switch x % 4 {
			case 0:
				addr = (x % 8) * 64 // hot lines
			case 1:
				addr = (x % 16) * 512 // L1-set conflicts
			default:
				addr = x % (1 << 22) // wide
			}
			li := hi.FetchLatency(addr, now)
			ld := hd.DataLatency(addr, false, now)
			if li != ld {
				t.Logf("seed %#x step %d addr %#x: fetch=%d data=%d", seed, i, addr, li, ld)
				return false
			}
			now += li + x%5
		}
		if hi.L1I.Stats() != hd.L1D.Stats() {
			t.Logf("L1 stats diverged: I=%+v D=%+v", hi.L1I.Stats(), hd.L1D.Stats())
			return false
		}
		if hi.L2.Stats() != hd.L2.Stats() {
			t.Logf("L2 stats diverged: I=%+v D=%+v", hi.L2.Stats(), hd.L2.Stats())
			return false
		}
		if hi.ITLB.Stats() != hd.DTLB.Stats() {
			t.Logf("TLB stats diverged")
			return false
		}
		if hi.BusBusyCycles != hd.BusBusyCycles {
			t.Logf("bus cycles diverged: I=%d D=%d", hi.BusBusyCycles, hd.BusBusyCycles)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// line is one way of refCache: a tag, a recency stamp from the
// reference's clock (0 while the way is invalid), and the flags.
type line struct {
	tag   uint64
	lru   uint64 // larger = more recently used; valid lines are >= 1
	valid bool
	dirty bool
}

// refCache is the seed-style two-pass reference implementation: per-set
// line slices, a tag-match scan, then a separate victim scan (first
// invalid way, else the smallest recency stamp). The recency-ordered
// Cache.access must be behaviorally identical to it.
type refCache struct {
	sets     [][]line
	setShift uint
	setMask  uint64
	clock    uint64
	stats    Stats
}

func newRefCache(cfg Config) *refCache {
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Assoc
	sets := make([][]line, nSets)
	for i := range sets {
		sets[i] = make([]line, cfg.Assoc)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &refCache{sets: sets, setShift: shift, setMask: uint64(nSets - 1)}
}

func (c *refCache) access(addr uint64, write, demand bool) AccessResult {
	c.clock++
	if demand {
		c.stats.Accesses++
	} else {
		c.stats.WritebackFills++
	}
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := (addr >> c.setShift) / (c.setMask + 1)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			if write {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	if demand {
		c.stats.Misses++
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	res := AccessResult{}
	if set[victim].valid {
		res.VictimValid = true
		setIdx := (addr >> c.setShift) & c.setMask
		res.VictimAddr = (set[victim].tag*(c.setMask+1) | setIdx) << c.setShift
		if set[victim].dirty {
			res.WritebackReq = true
			c.stats.Writebacks++
		}
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return res
}

// TestFusedScanMatchesReference drives the recency-ordered cache and the
// stamp-LRU reference with an identical randomized stream of demand
// reads/writes and writeback installs, comparing every AccessResult and
// the final statistics, over associativities 1 to 16, the smallest line
// a way word allows, and the TLB shape.
func TestFusedScanMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "assoc1", SizeBytes: 1024, LineBytes: 64, Assoc: 1},
		{Name: "assoc2", SizeBytes: 2048, LineBytes: 64, Assoc: 2},
		{Name: "assoc4", SizeBytes: 2048, LineBytes: 64, Assoc: 4},
		{Name: "assoc8", SizeBytes: 4096, LineBytes: 64, Assoc: 8},
		{Name: "assoc16", SizeBytes: 8192, LineBytes: 64, Assoc: 16},
		{Name: "line4", SizeBytes: 128, LineBytes: 4, Assoc: 2},
		{Name: "tlb", SizeBytes: 64 * 4096, LineBytes: 4096, Assoc: 4},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			f := func(seed uint64) bool {
				got := New(cfg)
				want := newRefCache(cfg)
				x := seed | 1
				for i := 0; i < 4000; i++ {
					x = xorshift(x)
					// Eight times the cache's size: enough aliasing to
					// churn sets, enough reuse to hit.
					addr := (x >> 8) % uint64(8*cfg.SizeBytes)
					write := x&1 == 1
					var gr, wr AccessResult
					switch {
					case x%16 == 0:
						gr = got.Writeback(addr)
						wr = want.access(addr, true, false)
					case x%16 == 1:
						gr = got.WritebackClean(addr)
						wr = want.access(addr, false, false)
					default:
						gr = got.Access(addr, write)
						wr = want.access(addr, write, true)
					}
					if gr != wr {
						t.Logf("seed %#x op %d addr %#x: cache=%+v ref=%+v", seed, i, addr, gr, wr)
						return false
					}
				}
				if got.Stats() != want.stats {
					t.Logf("stats diverged: cache=%+v ref=%+v", got.Stats(), want.stats)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResetClearsFlattenedStorage is the white-box recycle guarantee for
// the flattened layout: after Flush and after Reset every way is 0
// (invalid), and Reset zeroes the statistics, so a recycled cache replays
// replacement decisions exactly like a fresh one.
func TestResetClearsFlattenedStorage(t *testing.T) {
	c := smallCache()
	for a := uint64(0); a < 16; a++ {
		c.Access(a*64, a%2 == 0)
	}
	c.Flush()
	for i, w := range c.ways {
		if w != 0 {
			t.Fatalf("way %d survived Flush: %#x", i, w)
		}
	}
	c.Access(0x1000, true)
	c.Reset()
	if c.stats != (Stats{}) {
		t.Errorf("Reset kept stats %+v", c.stats)
	}
	for i, w := range c.ways {
		if w != 0 {
			t.Fatalf("way %d survived Reset: %#x", i, w)
		}
	}
}

// TestLRUEvictsPastDirtyMRU: after the accesses a, b, a (written), d to
// one 2-way set, d evicts clean b and leaves a resident and dirty, so
// evicting a next requests its writeback.
func TestLRUEvictsPastDirtyMRU(t *testing.T) {
	c := smallCache() // 4 sets x 2 ways
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, true) // a is MRU and dirty
	res := c.Access(d, false)
	if res != (AccessResult{VictimValid: true, VictimAddr: b}) {
		t.Fatalf("eviction = %+v, want clean victim %#x", res, b)
	}
	if !c.Probe(a) || c.Probe(b) || !c.Probe(d) {
		t.Error("LRU order lost")
	}
	if res := c.Access(a+0x300, false); res != (AccessResult{VictimValid: true, WritebackReq: true, VictimAddr: a}) {
		t.Errorf("evicting a = %+v, want dirty victim %#x", res, a)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, tc := range []struct {
		why string
		cfg Config
	}{
		{"non-power-of-two set count", Config{SizeBytes: 384, LineBytes: 64, Assoc: 2}},
		{"line too short for the way flags", Config{SizeBytes: 16, LineBytes: 2, Assoc: 2}},
		{"non-power-of-two line", Config{SizeBytes: 384, LineBytes: 48, Assoc: 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("want panic on %s", tc.why)
				}
			}()
			New(tc.cfg)
		}()
	}
}
