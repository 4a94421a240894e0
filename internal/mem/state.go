// Snapshot/Restore for the simulated memory. A State holds an immutable
// set of page images: Snapshot deep-copies the memory's own pages and
// shares the unwritten pages of a mapped image (which never change), and
// Restore deep-copies them all back, so a State can outlive — and be
// restored into — any number of memories. Consecutive snapshots of one
// memory are incremental: the first Snapshot turns on dirty-page
// tracking, and later ones copy only pages written since the previous
// snapshot, sharing the untouched page arrays with it (safe precisely
// because States never mutate their pages).
package mem

import (
	"encoding/binary"
	"sort"
)

// State is a point-in-time copy of a Memory. It is immutable once built;
// the page arrays it holds may be shared with other States taken from the
// same memory, and with the read-only image the memory mapped (MapImage),
// which by contract never changes.
type State struct {
	gen   uint64
	pages map[uint64]*[PageSize]byte
}

// Gen returns the write generation at capture time.
func (st *State) Gen() uint64 { return st.gen }

// Pages returns how many pages the snapshot holds.
func (st *State) Pages() int { return len(st.pages) }

// Snapshot captures the current memory contents. The first call on a
// memory copies its own pages, shares the unwritten image pages, and
// enables dirty-page tracking; subsequent calls copy only pages written
// since the previous Snapshot and share the rest with it.
func (m *Memory) Snapshot() *State {
	st := &State{gen: m.gen}
	if m.track && m.base != nil {
		// Incremental: start from the previous snapshot's page set and
		// replace (or drop) exactly the dirty pages. Pages are only ever
		// created or mapped by writes, so a page absent from base but
		// present now is necessarily dirty; a page in base can never
		// disappear without Reset, which clears tracking.
		st.pages = make(map[uint64]*[PageSize]byte, len(m.base.pages))
		for pn, p := range m.base.pages {
			st.pages[pn] = p
		}
		for pn := range m.dirty {
			if p := m.pages[pn]; p != nil {
				cp := new([PageSize]byte)
				*cp = *p
				st.pages[pn] = cp
			} else if p := m.imagePage(pn); p != nil {
				st.pages[pn] = p
			} else {
				delete(st.pages, pn)
			}
		}
	} else {
		nImg := uint64(len(m.image)) >> pageShift
		st.pages = make(map[uint64]*[PageSize]byte, uint64(len(m.pages))+nImg)
		for pn, p := range m.pages {
			cp := new([PageSize]byte)
			*cp = *p
			st.pages[pn] = cp
		}
		for pn := m.imgLo; pn < m.imgLo+nImg; pn++ {
			if st.pages[pn] == nil {
				st.pages[pn] = m.imagePage(pn)
			}
		}
	}
	m.base = st
	m.track = true
	m.dirty = make(map[uint64]struct{})
	m.lastDirty = 0
	return st
}

// Restore replaces the memory contents with the snapshot's, every page
// copied into the memory's own and the image unmapped. The write
// generation is restored too, so derived-state staleness checks keyed on
// Gen behave as they did at capture time. Write hooks are NOT fired:
// owners of derived caches (the pipeline predecoder) resynchronize via
// their own Restore. The restored memory re-baselines on st, so its next
// Snapshot is incremental again.
func (m *Memory) Restore(st *State) {
	m.pages = make(map[uint64]*[PageSize]byte, len(st.pages))
	for pn, p := range st.pages {
		cp := new([PageSize]byte)
		*cp = *p
		m.pages[pn] = cp
	}
	m.pcache = [pcacheSize]pcacheEntry{}
	m.image, m.imgLo = nil, 0
	m.gen = st.gen
	m.base = st
	m.track = true
	m.dirty = make(map[uint64]struct{})
	m.lastDirty = 0
}

// AppendBinary appends a deterministic encoding of the snapshot to dst:
// gen, page count, then each page as [page number][4096 bytes] in
// ascending page-number order.
func (st *State) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, st.gen)
	pns := make([]uint64, 0, len(st.pages))
	for pn := range st.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(pns)))
	for _, pn := range pns {
		dst = binary.LittleEndian.AppendUint64(dst, pn)
		dst = append(dst, st.pages[pn][:]...)
	}
	return dst
}
