package cache

// HierarchyConfig describes the full on-chip memory system.
type HierarchyConfig struct {
	L1I Config
	L1D Config
	L2  Config

	TLBEntries     int
	TLBAssoc       int
	TLBMissPenalty int // cycles added by a page walk
	PageBytes      int

	MemLatency   int // main-memory access latency in CPU cycles
	BusBeatBytes int // bus width
	BusRatio     int // CPU cycles per bus cycle
}

// DefaultConfig returns the paper's §5 configuration: 32KB 2-way L1s, 1MB
// 4-way L2, 64-entry 4-way TLBs, 100-cycle memory, 32-byte bus at 1/4 the
// processor frequency.
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:            Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1},
		L1D:            Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 2, HitLatency: 3},
		L2:             Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 4, HitLatency: 12},
		TLBEntries:     64,
		TLBAssoc:       4,
		TLBMissPenalty: 30,
		PageBytes:      4096,
		MemLatency:     100,
		BusBeatBytes:   32,
		BusRatio:       4,
	}
}

// Side selects which demand port of the hierarchy an access enters
// through: the instruction side (L1I + ITLB) or the data side (L1D +
// DTLB). Both sides share the L2, the bus, and — by construction — one
// miss policy.
type Side int

// The two demand ports.
const (
	SideI Side = iota
	SideD
)

// port is one side's first-level structures plus its precomputed L1 hit
// latency, so the unified miss engine is parameterized by data instead of
// by code.
type port struct {
	l1    *Cache
	tlb   *TLB
	l1Lat uint64
}

// Hierarchy stitches the caches, TLBs, bus, and memory into one timing
// model. It is not safe for concurrent use.
type Hierarchy struct {
	cfg HierarchyConfig

	L1I, L1D, L2 *Cache
	ITLB, DTLB   *TLB

	ports      [2]port // indexed by Side
	l2Lat      uint64
	tlbPenalty uint64

	busFreeAt uint64

	// BusBusyCycles accumulates bus occupancy for statistics.
	BusBusyCycles uint64
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		cfg:        cfg,
		L1I:        New(cfg.L1I),
		L1D:        New(cfg.L1D),
		L2:         New(cfg.L2),
		ITLB:       NewTLB(cfg.TLBEntries, cfg.TLBAssoc, cfg.PageBytes),
		DTLB:       NewTLB(cfg.TLBEntries, cfg.TLBAssoc, cfg.PageBytes),
		l2Lat:      uint64(cfg.L2.HitLatency),
		tlbPenalty: uint64(cfg.TLBMissPenalty),
	}
	h.ports[SideI] = port{l1: h.L1I, tlb: h.ITLB, l1Lat: uint64(cfg.L1I.HitLatency)}
	h.ports[SideD] = port{l1: h.L1D, tlb: h.DTLB, l1Lat: uint64(cfg.L1D.HitLatency)}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// lineTransferCycles is the time to move one L2 line across the bus.
func (h *Hierarchy) lineTransferCycles() uint64 {
	beats := (h.cfg.L2.LineBytes + h.cfg.BusBeatBytes - 1) / h.cfg.BusBeatBytes
	return uint64(beats * h.cfg.BusRatio)
}

// busAcquire reserves the bus at or after ready and returns the cycle the
// transfer completes.
func (h *Hierarchy) busAcquire(ready uint64) uint64 {
	start := ready
	if h.busFreeAt > start {
		start = h.busFreeAt
	}
	done := start + h.lineTransferCycles()
	h.busFreeAt = done
	h.BusBusyCycles += done - start
	return done
}

// fill models an access that missed in L2: bus transfer plus memory
// latency, with bus occupancy.
func (h *Hierarchy) fill(ready uint64) uint64 {
	return h.busAcquire(ready+uint64(h.cfg.MemLatency)) - ready
}

// access is the unified miss engine: every demand access on either side
// runs the same policy.
//
//   - L1 hit: done, at the side's L1 latency (plus a page walk on a TLB
//     miss — translation happens regardless of where the line is found).
//   - L1 miss: the L2 demand probe runs first, while any evicted L1 line
//     sits in a victim buffer. Demand-first ordering matters when victim
//     and demand share an L2 set: installing the victim first could evict
//     the very line being fetched, manufacturing the refetch miss victim
//     inclusion exists to avoid.
//   - Victim inclusion is full: every valid L1 victim — clean or dirty —
//     installs into L2 as writeback traffic (never a demand access).
//     Dirty victims install dirty; clean victims install clean, so a line
//     the upper level never wrote cannot later drain to memory as
//     spurious writeback traffic. Either install can evict an L2 dirty
//     line, whose drain to memory occupies the bus.
//   - An L2 demand miss drains its own dirty victim over the bus
//     (buffered — it does not extend the access's latency) and fills from
//     memory, paying bus occupancy and memory latency.
//
// Both sides charge the identical bus accounting; the only asymmetries
// left are the per-side structures and hit latencies.
func (h *Hierarchy) access(side Side, addr uint64, write bool, now uint64) uint64 {
	p := &h.ports[side]
	lat := p.l1Lat
	if !p.tlb.Lookup(addr) {
		lat += h.tlbPenalty
	}
	r1 := p.l1.Access(addr, write)
	if r1.Hit {
		return lat
	}
	r2 := h.L2.Access(addr, write)
	lat += h.l2Lat
	if r1.VictimValid {
		// The buffered L1 victim installs after the demand probe.
		var vr AccessResult
		if r1.WritebackReq {
			vr = h.L2.Writeback(r1.VictimAddr)
		} else {
			vr = h.L2.WritebackClean(r1.VictimAddr)
		}
		if vr.WritebackReq {
			h.busAcquire(now + lat)
		}
	}
	if r2.Hit {
		return lat
	}
	if r2.WritebackReq {
		h.busAcquire(now + lat) // dirty L2 victim occupies the bus, buffered
	}
	return lat + h.fill(now+lat)
}

// FetchLatency returns the latency in cycles of an instruction fetch at pc
// issued at cycle now. It is a thin wrapper over the unified miss engine;
// instruction fetches never write.
func (h *Hierarchy) FetchLatency(pc, now uint64) uint64 {
	return h.access(SideI, pc, false, now)
}

// DataLatency returns the latency in cycles of a data access at addr
// issued at cycle now. Stores allocate and dirty the line. It is a thin
// wrapper over the unified miss engine.
func (h *Hierarchy) DataLatency(addr uint64, write bool, now uint64) uint64 {
	return h.access(SideD, addr, write, now)
}

// Reset returns the whole memory system to its post-NewHierarchy state:
// caches and TLBs are invalidated with their statistics cleared, and the
// bus is idle again. A recycled hierarchy produces
// bit-identical latencies and statistics to a fresh one.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
	h.busFreeAt = 0
	h.BusBusyCycles = 0
}
