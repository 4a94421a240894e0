// Package mem provides the simulated memory system: a sparse, paged
// physical memory whose pages are shared copy-on-write, and a
// page-permission table. The permission table plays the role of the OS
// virtual-memory interface (mprotect) that the virtual-memory watchpoint
// implementation is built on (paper §2):
// removing write permission from a page makes every store to that page
// fault precisely, and the debugger classifies the fault as a user
// transition or a spurious address transition.
//
// One rule governs sharing: a memory writes a page in place only if it
// allocated that page since its last Snapshot or Restore. Every other
// page — mapped from a program image (MapImage), captured by Snapshot, or
// put back by Restore — may be shared, and the memory copies it on its
// first write. So neither an image nor a State ever changes.
package mem

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
)

// PageSize is the simulated page size in bytes. The paper uses 4KB and
// notes it is "on the small end for real systems" — i.e. favourable to the
// virtual-memory implementation.
const PageSize = 4096

const pageShift = 12

// maxPN is the last page number of the 64-bit address space.
const maxPN = 1<<(64-pageShift) - 1

// pcacheSize is the number of entries in the direct-mapped page-pointer
// cache that fronts the page map. Loads, stores, and fetches typically
// alternate among a handful of pages (stack, heap, text), so a tiny
// direct-mapped cache absorbs almost all page-map lookups.
const pcacheSize = 8

type pcacheEntry struct {
	pn uint64
	p  *[PageSize]byte
	// w marks p as writable in place: the memory allocated it in its
	// current epoch. Snapshot clears every w, so a write hit never lands
	// on a shared page.
	w bool
}

// page is a page-map entry: the page and the epoch the memory allocated
// it in. Epoch 0, which no memory is ever in, marks a shared page.
type page struct {
	p     *[PageSize]byte
	epoch uint64
}

// Memory is a sparse 64-bit physical address space. Use New. Memory is
// not safe for concurrent use; the simulator is single-threaded by design.
type Memory struct {
	pages map[uint64]page
	// epoch starts at 1 and advances on every Snapshot and Restore.
	epoch  uint64
	pcache [pcacheSize]pcacheEntry

	// onWrite hooks are called after every write, MapImage included, with
	// the inclusive page-number range the write touched. The pipeline's
	// predecoded-instruction cache registers here to invalidate precisely
	// when text is patched (breakpoint toggling, binary rewriting, DISE
	// production installation, or self-modifying code).
	onWrite []func(loPN, hiPN uint64)
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]page), epoch: 1}
}

// AddWriteHook registers fn to observe the page range of every write,
// after the bytes have been stored. Hooks accumulate: a second core (or
// any other derived-cache owner) sharing this memory registers its own
// hook without detaching earlier ones.
func (m *Memory) AddWriteHook(fn func(loPN, hiPN uint64)) {
	m.onWrite = append(m.onWrite, fn)
}

// Reset returns the memory to its freshly-constructed state: every page is
// dropped and the page-pointer cache is cleared (its entries point into
// the dropped pages). Registered write hooks survive — derived caches such
// as the pipeline's predecoder attach once per owner and must keep
// observing the recycled memory. Hooks are not notified of the reset;
// owners of derived state reset it explicitly (machine.Machine.Reset
// does).
func (m *Memory) Reset() {
	m.pages = make(map[uint64]page)
	m.epoch = 1
	m.pcache = [pcacheSize]pcacheEntry{}
}

// noteWrite notifies the write hooks of a completed write of n bytes at
// addr (n >= 1). A write that wraps past 2^64 reaches them as two
// ranges, the top of the address space and its bottom, so no hook ever
// sees an inverted range.
func (m *Memory) noteWrite(addr uint64, n int) {
	lo, hi := addr>>pageShift, (addr+uint64(n)-1)>>pageShift
	for _, fn := range m.onWrite {
		if lo <= hi {
			fn(lo, hi)
		} else {
			fn(lo, maxPN)
			fn(0, hi)
		}
	}
}

// lookup returns page pn for reading, or nil if pn is unmapped. It is the
// page cache's miss path; Read repeats the hit test inline, and keeping
// lookup out of line keeps the map access out of Read's hit path.
//
//go:noinline
func (m *Memory) lookup(pn uint64) *[PageSize]byte {
	e := &m.pcache[pn&(pcacheSize-1)]
	if e.p != nil && e.pn == pn {
		return e.p
	}
	pg := m.pages[pn]
	if pg.p != nil {
		*e = pcacheEntry{pn: pn, p: pg.p, w: pg.epoch == m.epoch}
	}
	return pg.p
}

// own returns page pn for writing in place: the page itself if the
// memory allocated it this epoch, else a new page holding the shared
// page's bytes (or zeros), which replaces it in the page map. It is the
// page cache's miss path for writes.
func (m *Memory) own(pn uint64) *[PageSize]byte {
	pg := m.pages[pn]
	if pg.epoch != m.epoch {
		p := new([PageSize]byte)
		if pg.p != nil {
			*p = *pg.p
		}
		pg = page{p: p, epoch: m.epoch}
		m.pages[pn] = pg
	}
	m.pcache[pn&(pcacheSize-1)] = pcacheEntry{pn: pn, p: pg.p, w: true}
	return pg.p
}

// ReadBytes copies n bytes starting at addr into a fresh slice. Unmapped
// bytes read as zero.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		a := addr + uint64(i)
		off := int(a & (PageSize - 1))
		chunk := min(PageSize-off, n-i)
		if p := m.lookup(a >> pageShift); p != nil {
			copy(out[i:i+chunk], p[off:])
		}
		i += chunk
	}
	return out
}

// WriteBytes stores b starting at addr, allocating pages as needed.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	if len(b) == 0 {
		return
	}
	m.copyIn(addr, b)
	m.noteWrite(addr, len(b))
}

// copyIn stores b at addr in pages the memory owns, without noting the
// write.
func (m *Memory) copyIn(addr uint64, b []byte) {
	for i := 0; i < len(b); {
		a := addr + uint64(i)
		i += copy(m.own(a >> pageShift)[a&(PageSize-1):], b[i:])
	}
}

// MapImage stores img at addr as WriteBytes does: the write hooks see the
// whole range, and a later read returns img's bytes. But the pages img
// covers whole are shared with img, not copied, until their first write;
// a partial first or last page is copied at once. img must never change
// afterwards.
func (m *Memory) MapImage(addr uint64, img []byte) {
	if len(img) == 0 {
		return
	}
	lo := (addr + PageSize - 1) &^ (PageSize - 1) // first whole page
	end := addr + uint64(len(img))
	hi := end &^ (PageSize - 1) // end of the last whole page
	if lo < addr || end < addr || hi <= lo {
		// No whole page, or the image wraps past 2^64: copy it.
		m.WriteBytes(addr, img)
		return
	}
	m.copyIn(addr, img[:lo-addr])
	m.copyIn(hi, img[hi-addr:])
	if n := int((hi - lo) >> pageShift); n > len(m.pages) {
		// Grow the map once, not through every doubling.
		pages := make(map[uint64]page, len(m.pages)+n)
		maps.Copy(pages, m.pages)
		m.pages = pages
	}
	for a := lo; a < hi; a += PageSize {
		m.pages[a>>pageShift] = page{p: (*[PageSize]byte)(img[a-addr:])}
	}
	m.pcache = [pcacheSize]pcacheEntry{}
	m.noteWrite(addr, len(img))
}

// Read returns size bytes (1, 2, 4, or 8) at addr as a little-endian value.
// Accesses may straddle page boundaries; alignment is not required.
func (m *Memory) Read(addr uint64, size int) uint64 {
	if off := int(addr & (PageSize - 1)); off+size <= PageSize {
		pn := addr >> pageShift
		var p *[PageSize]byte
		if e := &m.pcache[pn&(pcacheSize-1)]; e.p != nil && e.pn == pn {
			p = e.p
		} else if p = m.lookup(pn); p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var buf [8]byte
	copy(buf[:size], m.ReadBytes(addr, size))
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low size bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	if off := int(addr & (PageSize - 1)); off+size <= PageSize {
		pn := addr >> pageShift
		var p *[PageSize]byte
		if e := &m.pcache[pn&(pcacheSize-1)]; e.w && e.pn == pn {
			p = e.p
		} else {
			p = m.own(pn)
		}
		done := true
		switch size {
		case 1:
			p[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
		default:
			done = false
		}
		if done {
			m.noteWrite(addr, size)
			return
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.WriteBytes(addr, buf[:size])
}

// ReadInst fetches the 32-bit instruction word at addr.
func (m *Memory) ReadInst(addr uint64) uint32 { return uint32(m.Read(addr, 4)) }

// MappedPages returns the sorted page numbers that have been touched or
// mapped; useful in tests and for footprint statistics.
func (m *Memory) MappedPages() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		out = append(out, pn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PageOf returns the page number containing addr.
func PageOf(addr uint64) uint64 { return addr >> pageShift }

// PageBase returns the base address of the page containing addr.
func PageBase(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// Protection is a page-permission table keyed by page number. Only write
// protection matters to the debugger implementations, so that is all we
// track. The zero value allows all writes.
type Protection struct {
	readOnly map[uint64]bool
}

// NewProtection returns an empty permission table.
func NewProtection() *Protection {
	return &Protection{readOnly: make(map[uint64]bool)}
}

// ProtectRange write-protects every page overlapping [addr, addr+length).
func (p *Protection) ProtectRange(addr, length uint64) {
	if length == 0 {
		return
	}
	for pn := PageOf(addr); pn <= PageOf(addr+length-1); pn++ {
		p.readOnly[pn] = true
	}
}

// UnprotectRange restores write permission on every page overlapping
// [addr, addr+length).
func (p *Protection) UnprotectRange(addr, length uint64) {
	if length == 0 {
		return
	}
	for pn := PageOf(addr); pn <= PageOf(addr+length-1); pn++ {
		delete(p.readOnly, pn)
	}
}

// Clear removes all protections.
func (p *Protection) Clear() {
	p.readOnly = make(map[uint64]bool)
}

// WriteFaults reports whether a store of size bytes at addr would fault.
func (p *Protection) WriteFaults(addr uint64, size int) bool {
	if len(p.readOnly) == 0 {
		return false
	}
	if size <= 0 {
		size = 1
	}
	for pn := PageOf(addr); pn <= PageOf(addr+uint64(size)-1); pn++ {
		if p.readOnly[pn] {
			return true
		}
	}
	return false
}

// ProtectedPages returns how many pages are currently write-protected.
func (p *Protection) ProtectedPages() int { return len(p.readOnly) }

// Pages returns the sorted page numbers currently write-protected, for
// snapshot capture; ProtectRange on each restores an equivalent table.
func (p *Protection) Pages() []uint64 {
	out := make([]uint64, 0, len(p.readOnly))
	for pn := range p.readOnly {
		out = append(out, pn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (p *Protection) String() string {
	return fmt.Sprintf("protection{%d pages}", len(p.readOnly))
}
