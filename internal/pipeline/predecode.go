package pipeline

import (
	"slices"

	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/mem"
)

// instsPerPage is the number of instruction slots in one text page.
const instsPerPage = mem.PageSize / 4

// predecodePages caps the core's predecoded-text cache: 64 pages = 256KB
// of text, comfortably above every bundled kernel and the paper's
// benchmarks.
const predecodePages = 64

// decodedPage holds one text page decoded into micro-ops; slot k is the
// instruction at page base + 4k, pre-resolved (class, kind flags, operand
// register references) so the dispatch loop reads fields instead of
// re-deriving them per dynamic instance. memos[k] is slot k's DISE
// expansion memo: the instrumented half of the code cache, allocated the
// first time a fetch on the page consults an engine with productions, and
// dropped with the page when a store touches it.
type decodedPage struct {
	uops  [instsPerPage]isa.Uop
	memos *[instsPerPage]dise.Memo
}

// predecoder is a software code cache, the standard dynamic-binary-
// instrumentation trick: the fetch path used to run isa.Decode on every
// uop of every cycle, re-decoding the same loop bodies millions of times.
// The predecoder decodes each text page once into a decodedPage and serves
// fetches from it; a memory write hook invalidates the affected pages so
// runtime text patching — breakpoint toggling, the binary-rewrite
// backend's reloads, and genuinely self-modifying code — is executed
// faithfully at the next fetch.
//
// The page cache is bounded: at most maxPages pages stay decoded, with
// least-recently-used eviction on overflow, so a workload with a huge text
// footprint cannot grow the simulator's memory without bound. Hit,
// decode, eviction, and invalidation counts surface in pipeline.Stats.
type predecoder struct {
	m        *mem.Memory
	pages    map[uint64]*decodedPage
	maxPages int

	// recent holds the decoded pages' numbers in recency order, most
	// recently looked up first: a slow-path lookup moves its page to the
	// front, and the cap evicts the back. The fetch window is always the
	// front page, so a window hit leaves the order as it is.
	recent []uint64

	// The fetch window is the most recently used page: straight-line
	// fetch stays on one page for up to 1024 instructions, and a fetch
	// inside [winBase, winBase+PageSize) indexes win directly — one
	// subtraction and compare, no map lookup. win is nil and winBase is
	// noWindow, against which no pc takes that path, while no page is the
	// window.
	win     *decodedPage
	winBase uint64

	// [loPN, hiPN] bounds every page ever cached, so the write hook can
	// dismiss data-segment and stack stores with two compares instead of
	// a map probe per store.
	loPN, hiPN uint64 // loPN > hiPN means nothing cached yet

	hits          uint64 // fetches served from an already-decoded page
	decodes       uint64 // pages decoded (cold, or re-decoded after a drop)
	evictions     uint64 // pages dropped by the LRU cap
	invalidations uint64 // pages dropped because a store touched them

	// Uop-granular decode-amortization counters: resolves counts
	// micro-ops resolved (instsPerPage per page decode, one per
	// misaligned fetch), uopInvals counts pre-resolved micro-ops thrown
	// away because a store touched their page. Capacity evictions are
	// deliberately excluded from uopInvals — they are a cache-sizing
	// effect, not a coherence event.
	resolves  uint64
	uopInvals uint64

	// misal is the scratch slot misaligned fetches resolve into; the
	// returned pointer is valid until the next fetch, which is all the
	// single-uop-in-flight dispatch loop needs. misalMemo is its memo,
	// emptied on every use because the slot is never cached.
	misal     isa.Uop
	misalMemo dise.Memo
}

// noWindow poisons winBase while no page is the window. Its low bits are
// 2, so off = pc-noWindow and pc never share alignment and no pc passes
// fetch's (off|pc)&3 == 0 test, not even one in [1<<63, 1<<63+PageSize);
// a real window base is page-aligned, where the test reads pc&3 == 0.
// Snapshots store the window's page, which the low bits do not change.
const noWindow = uint64(1)<<63 | 2

func newPredecoder(m *mem.Memory, maxPages int) *predecoder {
	d := &predecoder{m: m, maxPages: maxPages}
	d.reset()
	return d
}

// fetch returns the decoded micro-op at pc and the page serving it (nil
// for a misaligned pc), which memo takes to find the slot's expansion
// memo. An aligned pc inside the refill window is served with one index;
// everything else — a window miss, an invalidated window, a misaligned
// pc — takes the slow path. The returned pointer stays valid until the
// page is dropped AND the caller lets go of it (uops are never mutated
// in place, only unlinked with their page), so a self-modifying store
// may invalidate the page of the very uop executing it without
// corrupting that uop.
func (d *predecoder) fetch(pc uint64) (*isa.Uop, *decodedPage) {
	if off := pc - d.winBase; off < mem.PageSize && (off|pc)&3 == 0 {
		d.hits++
		return &d.win.uops[off>>2], d.win
	}
	return d.fetchSlow(pc)
}

func (d *predecoder) fetchSlow(pc uint64) (*isa.Uop, *decodedPage) {
	if pc&3 != 0 {
		// Misaligned PCs never come from the predecoded image; decode the
		// straddling word directly, exactly as raw fetch did. Resolved
		// fresh every time (never cached), into the scratch slot.
		d.misal = isa.DecodeUop(d.m.ReadInst(pc))
		d.resolves++
		return &d.misal, nil
	}
	pn := mem.PageOf(pc)
	pg := d.pages[pn]
	if pg == nil {
		if len(d.pages) >= d.maxPages {
			d.evictLRU()
		}
		pg = new(decodedPage)
		base := mem.PageBase(pc)
		for i := 0; i < instsPerPage; i++ {
			pg.uops[i] = isa.DecodeUop(d.m.ReadInst(base + uint64(i)*4))
		}
		d.pages[pn] = pg
		d.recent = append(d.recent, pn)
		d.decodes++
		d.resolves += instsPerPage
		if d.loPN > d.hiPN {
			d.loPN, d.hiPN = pn, pn
		} else {
			if pn < d.loPN {
				d.loPN = pn
			}
			if pn > d.hiPN {
				d.hiPN = pn
			}
		}
	} else {
		d.hits++
	}
	i := slices.Index(d.recent, pn)
	copy(d.recent[1:i+1], d.recent[:i])
	d.recent[0] = pn
	d.win, d.winBase = pg, mem.PageBase(pc)
	return &pg.uops[(pc&(mem.PageSize-1))>>2], pg
}

// memo returns the expansion memo for the uop fetch returned at pc from
// page pg. The page's memos are allocated on first use, so the fetch
// path asks only while the engine is Armed.
func (d *predecoder) memo(pg *decodedPage, pc uint64) *dise.Memo {
	if pg == nil {
		d.misalMemo = dise.Memo{}
		return &d.misalMemo
	}
	if pg.memos == nil {
		pg.memos = new([instsPerPage]dise.Memo)
	}
	return &pg.memos[pc>>2&(instsPerPage-1)]
}

// evictLRU drops the least-recently-used page, the back of the recency
// order. It runs only when a decode would overflow the cap.
func (d *predecoder) evictLRU() {
	last := len(d.recent) - 1
	victim := d.recent[last]
	d.recent = d.recent[:last]
	if d.win == d.pages[victim] {
		d.win, d.winBase = nil, noWindow
	}
	delete(d.pages, victim)
	d.evictions++
}

// reset drops every decoded page and rezeroes the bounds and counters,
// returning the predecoder to its post-newPredecoder state
// (newPredecoder ends by calling it). The memory write hook registered at
// construction keeps pointing here, so a recycled core's text cache
// invalidates exactly like a fresh one's.
func (d *predecoder) reset() {
	d.pages = make(map[uint64]*decodedPage)
	d.recent = d.recent[:0]
	d.win, d.winBase = nil, noWindow
	d.loPN, d.hiPN = 1, 0
	d.hits, d.decodes, d.evictions, d.invalidations = 0, 0, 0, 0
	d.resolves, d.uopInvals = 0, 0
}

// invalidate drops every cached page in the inclusive page range
// [loPN, hiPN]. It is registered as the memory's write hook, so it runs
// on every store; the common case — a write nowhere near cached text —
// must return after the range compare.
func (d *predecoder) invalidate(loPN, hiPN uint64) {
	if hiPN < d.loPN || loPN > d.hiPN {
		return
	}
	if loPN < d.loPN {
		loPN = d.loPN
	}
	if hiPN > d.hiPN {
		hiPN = d.hiPN
	}
	for pn := loPN; pn <= hiPN; pn++ {
		if _, ok := d.pages[pn]; ok {
			delete(d.pages, pn)
			i := slices.Index(d.recent, pn)
			d.recent = slices.Delete(d.recent, i, i+1)
			d.invalidations++
			d.uopInvals += instsPerPage
		}
		if d.win != nil && d.winBase == pn*mem.PageSize {
			d.win, d.winBase = nil, noWindow
		}
	}
}
