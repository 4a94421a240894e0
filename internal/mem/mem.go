// Package mem provides the simulated memory system: a sparse, paged
// physical memory that can map a read-only program image, and a
// page-permission table. The permission table plays the role of the OS
// virtual-memory interface (mprotect) that the virtual-memory watchpoint
// implementation is built on (paper §2):
// removing write permission from a page makes every store to that page
// fault precisely, and the debugger classifies the fault as a user
// transition or a spurious address transition.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageSize is the simulated page size in bytes. The paper uses 4KB and
// notes it is "on the small end for real systems" — i.e. favourable to the
// virtual-memory implementation.
const PageSize = 4096

const pageShift = 12

// pcacheSize is the number of entries in the direct-mapped page-pointer
// cache that fronts the page map. Loads, stores, and fetches typically
// alternate among a handful of pages (stack, heap, text), so a tiny
// direct-mapped cache absorbs almost all page-map lookups.
const pcacheSize = 8

type pcacheEntry struct {
	pn uint64
	p  *[PageSize]byte
	// w marks p as one of the memory's own pages, writable in place. An
	// image page is cached for reads only, so a write hit never lands on
	// it.
	w bool
}

// Memory is a sparse 64-bit physical address space. Use New. Memory is
// not safe for concurrent use; the simulator is single-threaded by design.
type Memory struct {
	pages  map[uint64]*[PageSize]byte
	pcache [pcacheSize]pcacheEntry

	// image holds the whole pages MapImage mapped in place: page imgLo+i
	// reads as image[i*PageSize:] until its first write copies it into
	// pages, which shadows it from then on. len(image) is a multiple of
	// PageSize; nil maps nothing.
	image []byte
	imgLo uint64

	// gen counts writes; it advances on every Write, WriteBytes and
	// MapImage so callers holding derived state (e.g. predecoded
	// instructions) can detect staleness cheaply.
	gen uint64

	// onWrite hooks are called after every write, MapImage included, with
	// the inclusive page-number range the write touched. The pipeline's
	// predecoded-instruction cache registers here to invalidate precisely
	// when text is patched (breakpoint toggling, binary rewriting, DISE
	// production installation, or self-modifying code).
	onWrite []func(loPN, hiPN uint64)

	// Dirty-page tracking for incremental snapshots: while track is set
	// (from the first Snapshot on), every written page number lands in
	// dirty, so the next Snapshot copies only pages changed since base and
	// shares the rest with it. lastDirty is a one-entry MRU filter (page
	// number + 1; 0 = none) that keeps repeated stores to one page — the
	// overwhelmingly common pattern — out of the map. Untracked memories
	// (track false, the pre-snapshot default) pay a single branch per
	// write.
	track     bool
	dirty     map[uint64]struct{}
	lastDirty uint64
	base      *State
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

// AddWriteHook registers fn to observe the page range of every write,
// after the bytes have been stored. Hooks accumulate: a second core (or
// any other derived-cache owner) sharing this memory registers its own
// hook without detaching earlier ones.
func (m *Memory) AddWriteHook(fn func(loPN, hiPN uint64)) {
	m.onWrite = append(m.onWrite, fn)
}

// Gen returns the write generation: it changes whenever memory changes.
func (m *Memory) Gen() uint64 { return m.gen }

// Reset returns the memory to its freshly-constructed state: every page is
// dropped, the image is unmapped, the page-pointer cache is cleared (its
// entries point into the dropped pages), and the write generation
// restarts at zero. Registered write hooks survive — derived caches such
// as the pipeline's predecoder attach once per owner and must keep
// observing the recycled memory. Hooks are not notified of the reset;
// owners of derived state reset it explicitly (machine.Machine.Reset
// does).
func (m *Memory) Reset() {
	m.pages = make(map[uint64]*[PageSize]byte)
	m.pcache = [pcacheSize]pcacheEntry{}
	m.image, m.imgLo = nil, 0
	m.gen = 0
	m.track = false
	m.dirty = nil
	m.lastDirty = 0
	m.base = nil
}

// noteWrite advances the write generation and notifies the write hooks of
// a completed write of n bytes at addr (n >= 1).
func (m *Memory) noteWrite(addr uint64, n int) {
	m.gen++
	if m.track {
		lo := addr >> pageShift
		hi := (addr + uint64(n) - 1) >> pageShift
		if lo+1 != m.lastDirty || hi != lo {
			for pn := lo; pn <= hi; pn++ {
				m.dirty[pn] = struct{}{}
			}
			m.lastDirty = lo + 1
		}
	}
	for _, fn := range m.onWrite {
		fn(addr>>pageShift, (addr+uint64(n)-1)>>pageShift)
	}
}

// imagePage returns image page pn, or nil if the image does not map it.
func (m *Memory) imagePage(pn uint64) *[PageSize]byte {
	if i := pn - m.imgLo; i < uint64(len(m.image))>>pageShift {
		return (*[PageSize]byte)(m.image[i<<pageShift:])
	}
	return nil
}

// lookup returns page pn for reading, the memory's own copy before the
// image's, or nil if pn is unmapped. It is the page cache's miss path;
// Read repeats the hit test inline.
func (m *Memory) lookup(pn uint64) *[PageSize]byte {
	e := &m.pcache[pn&(pcacheSize-1)]
	if e.p != nil && e.pn == pn {
		return e.p
	}
	if p := m.pages[pn]; p != nil {
		*e = pcacheEntry{pn: pn, p: p, w: true}
		return p
	}
	if p := m.imagePage(pn); p != nil {
		*e = pcacheEntry{pn: pn, p: p}
		return p
	}
	return nil
}

// own returns the memory's own copy of page pn, made on the first write
// to the page: a copy of the image page if one is mapped there, else
// zeros. It is the page cache's miss path for writes.
func (m *Memory) own(pn uint64) *[PageSize]byte {
	p := m.pages[pn]
	if p == nil {
		p = new([PageSize]byte)
		if src := m.imagePage(pn); src != nil {
			*p = *src
		}
		m.pages[pn] = p
	}
	m.pcache[pn&(pcacheSize-1)] = pcacheEntry{pn: pn, p: p, w: true}
	return p
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

// copyIn stores b at addr in the memory's own pages, without noting the
// write.
func (m *Memory) copyIn(addr uint64, b []byte) {
	for i := 0; i < len(b); {
		a := addr + uint64(i)
		i += copy(m.own(a >> pageShift)[a&(PageSize-1):], b[i:])
	}
}

// MapImage stores img at addr as WriteBytes does: the generation advances
// once, the write hooks see the whole range, and a later read returns
// img's bytes. But the pages img covers whole are mapped in place rather
// than copied, and are copied in only on their first write; a partial
// first or last page is copied at once. img must never change afterwards:
// reads and States taken by Snapshot share its bytes.
//
// One image is mapped at a time. Mapping another copies in the previous
// image's pages that the new one does not cover whole, so memory ends
// exactly as WriteBytes would leave it.
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
	loPN, hiPN := lo>>pageShift, hi>>pageShift
	for i := range uint64(len(m.image)) >> pageShift {
		if pn := m.imgLo + i; (pn < loPN || pn >= hiPN) && m.pages[pn] == nil {
			m.own(pn)
		}
	}
	for pn := range m.pages {
		if pn >= loPN && pn < hiPN {
			delete(m.pages, pn)
		}
	}
	m.image, m.imgLo = img[lo-addr:hi-addr:hi-addr], loPN
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
// are mapped from the image; useful in tests and for footprint
// statistics.
func (m *Memory) MappedPages() []uint64 {
	nImg := uint64(len(m.image)) >> pageShift
	out := make([]uint64, 0, uint64(len(m.pages))+nImg)
	for pn := range m.pages {
		out = append(out, pn)
	}
	for pn := m.imgLo; pn < m.imgLo+nImg; pn++ {
		if m.pages[pn] == nil {
			out = append(out, pn)
		}
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
