// Snapshot/Restore for the simulated memory. Neither copies a page:
// Snapshot records the memory's page pointers and starts a new epoch, so
// the memory shares every recorded page from then on and copies it on
// its first write, and Restore installs a State's pages as shared
// entries. A State therefore never changes after capture, and one State
// can be restored into any number of memories.
package mem

import (
	"encoding/binary"
	"slices"
	"sort"
)

// State is a point-in-time copy of a Memory. It is immutable: its pages
// are shared with the memory it came from, with every memory it is
// restored into, with other States and with mapped images, and none of
// them writes a shared page in place.
type State struct {
	pages map[uint64]*[PageSize]byte
}

// Pages returns how many pages the snapshot holds.
func (st *State) Pages() int { return len(st.pages) }

// Snapshot captures the current memory contents and starts a new epoch:
// every page is shared with the State from now on.
func (m *Memory) Snapshot() *State {
	st := &State{pages: make(map[uint64]*[PageSize]byte, len(m.pages))}
	for pn, pg := range m.pages {
		st.pages[pn] = pg.p
	}
	m.epoch++
	for i := range m.pcache {
		m.pcache[i].w = false
	}
	return st
}

// Restore replaces the memory contents with the snapshot's, every page
// shared with st, and starts a new epoch. Write hooks are NOT fired:
// owners of derived caches (the pipeline predecoder) resynchronize via
// their own Restore.
func (m *Memory) Restore(st *State) {
	m.pages = make(map[uint64]page, len(st.pages))
	for pn, p := range st.pages {
		m.pages[pn] = page{p: p}
	}
	m.epoch++
	m.pcache = [pcacheSize]pcacheEntry{}
}

// AppendBinary appends a deterministic encoding of the snapshot to dst:
// page count, then each page as [page number][4096 bytes] in ascending
// page-number order.
func (st *State) AppendBinary(dst []byte) []byte {
	pns := make([]uint64, 0, len(st.pages))
	for pn := range st.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	dst = slices.Grow(dst, 8+len(pns)*(8+PageSize))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(pns)))
	for _, pn := range pns {
		dst = binary.LittleEndian.AppendUint64(dst, pn)
		dst = append(dst, st.pages[pn][:]...)
	}
	return dst
}
