package pipeline

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

func encodeOrDie(t *testing.T, i isa.Inst) uint32 {
	t.Helper()
	w, err := isa.Encode(i)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPredecoderServesAndInvalidates(t *testing.T) {
	m := mem.New()
	d := newPredecoder(m, predecodePages)
	m.AddWriteHook(d.invalidate)

	addq := isa.Inst{Op: isa.OpAddq, RA: isa.R1, RC: isa.R2, Imm: 5, UseImm: true}
	subq := isa.Inst{Op: isa.OpSubq, RA: isa.R1, RC: isa.R2, Imm: 5, UseImm: true}
	pc := uint64(0x4000)
	m.Write(pc, 4, uint64(encodeOrDie(t, addq)))

	if got, _ := d.fetch(pc); got.Inst != addq {
		t.Fatalf("fetch = %v, want %v", got.Inst, addq)
	}
	// Patch the word; the write hook must drop the cached page.
	m.Write(pc, 4, uint64(encodeOrDie(t, subq)))
	if got, _ := d.fetch(pc); got.Inst != subq {
		t.Errorf("fetch after patch = %v, want %v (stale cache)", got.Inst, subq)
	}
	// Uop-granular accounting: two page fills' worth of resolves, one
	// page's worth of invalidated micro-ops.
	if d.resolves != 2*instsPerPage {
		t.Errorf("uop resolves = %d, want %d", d.resolves, 2*instsPerPage)
	}
	if d.uopInvals != instsPerPage {
		t.Errorf("uop invalidations = %d, want %d", d.uopInvals, instsPerPage)
	}
}

// TestPredecoderNoWindowHighPC: with no page as the window, an aligned
// fetch just above 1<<63 must take the slow path, not index a nil window.
func TestPredecoderNoWindowHighPC(t *testing.T) {
	m := mem.New()
	d := newPredecoder(m, predecodePages)
	m.AddWriteHook(d.invalidate)

	addq := isa.Inst{Op: isa.OpAddq, RA: isa.R1, RC: isa.R2, Imm: 5, UseImm: true}
	for _, pc := range []uint64{1 << 63, 1<<63 + 4, 1<<63 + mem.PageSize - 4} {
		m.Write(pc, 4, uint64(encodeOrDie(t, addq)))
		d.reset() // no window
		if got, _ := d.fetch(pc); got.Inst != addq {
			t.Errorf("fetch(%#x) = %v, want %v", pc, got.Inst, addq)
		}
		if got, _ := d.fetch(pc); got.Inst != addq { // now through the window
			t.Errorf("windowed fetch(%#x) = %v, want %v", pc, got.Inst, addq)
		}
	}
}

func TestPredecoderWriteBytesInvalidates(t *testing.T) {
	m := mem.New()
	d := newPredecoder(m, predecodePages)
	m.AddWriteHook(d.invalidate)

	addq := isa.Inst{Op: isa.OpAddq, RA: isa.R1, RC: isa.R2, Imm: 5, UseImm: true}
	pc := uint64(0x8000)
	m.Write(pc, 4, uint64(encodeOrDie(t, addq)))
	if got, _ := d.fetch(pc); got.Inst != addq {
		t.Fatalf("fetch = %v, want %v", got.Inst, addq)
	}
	// A bulk write spanning the page (e.g. a program reload) must also
	// invalidate.
	m.WriteBytes(pc-mem.PageSize, make([]byte, 3*mem.PageSize))
	if got, _ := d.fetch(pc); got.Inst.Op != isa.OpNop {
		t.Errorf("fetch after bulk overwrite = %v, want nop (zeroed text)", got.Inst)
	}
}

func TestPredecoderDataWritesAreCheap(t *testing.T) {
	m := mem.New()
	d := newPredecoder(m, predecodePages)
	m.AddWriteHook(d.invalidate)

	pc := uint64(0x4000)
	m.Write(pc, 4, uint64(encodeOrDie(t, isa.Inst{Op: isa.OpAddq, RA: isa.R1, RC: isa.R2})))
	d.fetch(pc)
	// Writes far from any cached text page must not evict it.
	for a := uint64(0x100000); a < 0x100000+64; a += 8 {
		m.Write(a, 8, a)
	}
	if d.pages[mem.PageOf(pc)] == nil {
		t.Error("data-segment writes evicted a text page")
	}
}

func TestPredecoderMisalignedPCFallsBack(t *testing.T) {
	m := mem.New()
	d := newPredecoder(m, predecodePages)

	w := encodeOrDie(t, isa.Inst{Op: isa.OpAddq, RA: isa.R1, RC: isa.R2, Imm: 9, UseImm: true})
	m.Write(0x4002, 4, uint64(w))
	want := isa.Decode(m.ReadInst(0x4002))
	if got, _ := d.fetch(0x4002); got.Inst != want {
		t.Errorf("misaligned fetch = %v, want %v", got.Inst, want)
	}
	// And a misaligned fetch on an already-cached page must not read a
	// truncated slot index. (The aligned write below also rewrites the
	// upper bytes of the straddling word, so re-derive the expectation.)
	m.Write(0x4004, 4, uint64(w))
	d.fetch(0x4004) // caches the page
	want = isa.Decode(m.ReadInst(0x4002))
	if got, _ := d.fetch(0x4002); got.Inst != want {
		t.Errorf("misaligned fetch with cached page = %v, want %v", got.Inst, want)
	}
}

// TestPredecoderLRUCap: the page cache must never exceed its cap, evict
// the least-recently-used page on overflow, and re-decode an evicted page
// transparently on the next fetch.
func TestPredecoderLRUCap(t *testing.T) {
	m := mem.New()
	d := newPredecoder(m, 2)
	m.AddWriteHook(d.invalidate)

	addq := isa.Inst{Op: isa.OpAddq, RA: isa.R1, RC: isa.R2, Imm: 5, UseImm: true}
	pcs := []uint64{0x4000, 0x8000, 0xC000} // three distinct pages
	for _, pc := range pcs {
		m.Write(pc, 4, uint64(encodeOrDie(t, addq)))
	}

	d.fetch(pcs[0])
	d.fetch(pcs[1])
	d.fetch(pcs[0]) // page 0 is now MRU of the two resident pages
	if got, _ := d.fetch(pcs[2]); got.Inst != addq {
		t.Fatalf("fetch = %v, want %v", got.Inst, addq)
	}
	if len(d.pages) != 2 {
		t.Errorf("cached pages = %d, want cap 2", len(d.pages))
	}
	if d.pages[mem.PageOf(pcs[1])] != nil {
		t.Error("LRU page (pcs[1]) should have been evicted")
	}
	if d.pages[mem.PageOf(pcs[0])] == nil {
		t.Error("recently used page (pcs[0]) was evicted")
	}
	if d.evictions != 1 {
		t.Errorf("evictions = %d, want 1", d.evictions)
	}
	// The evicted page re-decodes correctly on demand.
	if got, _ := d.fetch(pcs[1]); got.Inst != addq {
		t.Errorf("refetch of evicted page = %v, want %v", got.Inst, addq)
	}
	if d.decodes != 4 {
		t.Errorf("page decodes = %d, want 4 (3 cold + 1 re-decode)", d.decodes)
	}
}

// TestPredecoderCounters: hits, decodes, and invalidations must track the
// fetch and patch traffic exactly.
func TestPredecoderCounters(t *testing.T) {
	m := mem.New()
	d := newPredecoder(m, predecodePages)
	m.AddWriteHook(d.invalidate)

	addq := isa.Inst{Op: isa.OpAddq, RA: isa.R1, RC: isa.R2, Imm: 5, UseImm: true}
	pc := uint64(0x4000)
	m.Write(pc, 4, uint64(encodeOrDie(t, addq)))

	d.fetch(pc) // cold: decode
	d.fetch(pc) // MRU hit
	d.fetch(pc + 4)
	if d.decodes != 1 || d.hits != 2 {
		t.Errorf("decodes = %d hits = %d, want 1/2", d.decodes, d.hits)
	}
	m.Write(pc, 4, uint64(encodeOrDie(t, addq))) // patch drops the page
	if d.invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", d.invalidations)
	}
	d.fetch(pc)
	if d.decodes != 2 {
		t.Errorf("decodes after invalidation = %d, want 2", d.decodes)
	}
}

// TestMemoryWriteGeneration pins the contract the predecoder's staleness
// reasoning rests on: every mutation of memory fires the write hooks once,
// and an empty write or a read fires none.
func TestMemoryWriteGeneration(t *testing.T) {
	m := mem.New()
	calls := 0
	m.AddWriteHook(func(lo, hi uint64) { calls++ })
	m.Write(0x1000, 8, 42)
	if calls != 1 {
		t.Errorf("Write fired %d hooks, want 1", calls)
	}
	m.WriteBytes(0x2000, []byte{1, 2, 3})
	if calls != 2 {
		t.Errorf("WriteBytes fired %d hooks in all, want 2", calls)
	}
	m.MapImage(0x4000, make([]byte, 2*mem.PageSize))
	if calls != 3 {
		t.Errorf("MapImage fired %d hooks in all, want 3", calls)
	}
	m.WriteBytes(0x3000, nil)
	m.Read(0x1000, 8)
	if calls != 3 {
		t.Errorf("an empty write or a read fired a hook: %d in all, want 3", calls)
	}
}

// stampPages is the predecoder's page cache as it was once modelled:
// one recency stamp per decoded page from a clock that advances on every
// aligned fetch, and a scan for the smallest stamp to pick each victim.
// The predecoder's recency order must evict and keep exactly what it
// does.
type stampPages struct {
	cap       int
	stamp     map[uint64]uint64
	clock     uint64
	evictions uint64
}

func (r *stampPages) fetch(pc uint64) {
	if pc&3 != 0 {
		return // a misaligned fetch never touches the page cache
	}
	r.clock++
	pn := mem.PageOf(pc)
	if _, ok := r.stamp[pn]; !ok && len(r.stamp) >= r.cap {
		victim, oldest := uint64(0), ^uint64(0)
		for p, at := range r.stamp {
			if at < oldest {
				victim, oldest = p, at
			}
		}
		delete(r.stamp, victim)
		r.evictions++
	}
	r.stamp[pn] = r.clock
}

func (r *stampPages) invalidate(lo, hi uint64) {
	for pn := range r.stamp {
		if pn >= lo && pn <= hi {
			delete(r.stamp, pn)
		}
	}
}

func (r *stampPages) clone() *stampPages {
	c := *r
	c.stamp = maps.Clone(r.stamp)
	return &c
}

// TestPredecoderMatchesStampLRU drives the predecoder and the stamp-LRU
// reference through the same random streams over six text pages at caps
// of 2 to 4: fetches, mostly in runs on one page (window hits) and some
// misaligned, stores that invalidate a page or miss the text, resets, and
// snapshot restores. After every operation both must hold the same
// pages, in the same recency order, with the same eviction count; the
// fetch window must be the most recent page; and every fetch must return
// the instruction memory holds.
func TestPredecoderMatchesStampLRU(t *testing.T) {
	const base, npages = 0x40000, 6
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := mem.New()
		d := newPredecoder(m, 2+r.Intn(3))
		ref := &stampPages{cap: d.maxPages, stamp: map[uint64]uint64{}}
		m.AddWriteHook(d.invalidate)
		m.AddWriteHook(func(lo, hi uint64) { ref.invalidate(lo, hi) })
		var saved predState
		var savedRef *stampPages

		for step := 0; step < 300; step++ {
			pc := base + uint64(r.Intn(npages))*mem.PageSize + 4*uint64(r.Intn(instsPerPage))
			switch op := r.Intn(20); {
			case op < 2:
				// A store into the text, or one far away.
				addr := pc
				if op == 1 {
					addr = 1 << 30
				}
				m.Write(addr, 4, uint64(r.Uint32()))
			case op == 2 && r.Intn(8) == 0:
				d.reset()
				ref = &stampPages{cap: d.maxPages, stamp: map[uint64]uint64{}}
			case op == 3:
				saved, savedRef = d.snapshot(), ref.clone()
			case op == 4 && savedRef != nil:
				d.restore(&saved)
				ref = savedRef.clone()
			default:
				if op == 5 {
					pc += 1 + uint64(r.Intn(3)) // misaligned
				}
				for n := 1 + r.Intn(4); n > 0; n-- {
					got, _ := d.fetch(pc)
					ref.fetch(pc)
					if want := isa.DecodeUop(m.ReadInst(pc)); *got != want {
						t.Fatalf("seed %d step %d: fetch(%#x) = %v, memory holds %v", seed, step, pc, got.Inst, want.Inst)
					}
					pc += 4
				}
			}

			want := slices.SortedFunc(maps.Keys(ref.stamp), func(a, b uint64) int { return cmp.Compare(ref.stamp[b], ref.stamp[a]) })
			if !slices.Equal(d.recent, want) || len(d.pages) != len(want) {
				t.Fatalf("seed %d step %d: pages %v (%d mapped), stamp LRU holds %v", seed, step, d.recent, len(d.pages), want)
			}
			for _, pn := range want {
				if d.pages[pn] == nil {
					t.Fatalf("seed %d step %d: page %#x is in the recency order but not mapped", seed, step, pn)
				}
			}
			if d.evictions != ref.evictions {
				t.Fatalf("seed %d step %d: %d evictions, stamp LRU %d", seed, step, d.evictions, ref.evictions)
			}
			if d.win != nil && d.win != d.pages[d.recent[0]] {
				t.Fatalf("seed %d step %d: the fetch window is not the most recent page", seed, step)
			}
		}
	}
}
