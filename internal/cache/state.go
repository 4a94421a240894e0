// Snapshot/Restore for caches, TLBs, and the full hierarchy. A snapshot
// captures every way word (line address, valid and dirty bits, in each
// set's recency order) bit-exactly, so a restored cache produces the
// identical hit/miss/writeback sequence the original would have. States
// are deep copies both ways and carry no configuration: Restore panics if
// the geometry does not match, which keeps config mismatches loud instead
// of silently corrupting timing.
package cache

import "encoding/binary"

// State is a point-in-time copy of one Cache.
type State struct {
	ways  []uint64
	stats Stats
}

// Snapshot captures the cache contents and statistics.
func (c *Cache) Snapshot() *State {
	return &State{ways: append([]uint64(nil), c.ways...), stats: c.stats}
}

// Restore replaces the cache contents and statistics with the snapshot's.
// It panics if the snapshot was taken from a cache with different
// geometry.
func (c *Cache) Restore(st *State) {
	if len(st.ways) != len(c.ways) {
		panic("cache: Restore geometry mismatch")
	}
	copy(c.ways, st.ways)
	c.stats = st.stats
}

// AppendBinary appends a deterministic encoding of the snapshot to dst.
func (st *State) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.ways)))
	for _, w := range st.ways {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.Accesses)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.Misses)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.Writebacks)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.WritebackFills)
	return dst
}

// Snapshot captures the TLB contents (its backing cache state).
func (t *TLB) Snapshot() *State { return t.inner.Snapshot() }

// Restore replaces the TLB contents with the snapshot's.
func (t *TLB) Restore(st *State) { t.inner.Restore(st) }

// HierarchyState is a point-in-time copy of a full Hierarchy: the five
// cache arrays plus the shared L1↔L2 bus schedule.
type HierarchyState struct {
	L1I, L1D, L2  *State
	ITLB, DTLB    *State
	busFreeAt     uint64
	busBusyCycles uint64
}

// Snapshot captures the whole hierarchy.
func (h *Hierarchy) Snapshot() *HierarchyState {
	return &HierarchyState{
		L1I:           h.L1I.Snapshot(),
		L1D:           h.L1D.Snapshot(),
		L2:            h.L2.Snapshot(),
		ITLB:          h.ITLB.Snapshot(),
		DTLB:          h.DTLB.Snapshot(),
		busFreeAt:     h.busFreeAt,
		busBusyCycles: h.BusBusyCycles,
	}
}

// Restore replaces the hierarchy contents with the snapshot's.
func (h *Hierarchy) Restore(st *HierarchyState) {
	h.L1I.Restore(st.L1I)
	h.L1D.Restore(st.L1D)
	h.L2.Restore(st.L2)
	h.ITLB.Restore(st.ITLB)
	h.DTLB.Restore(st.DTLB)
	h.busFreeAt = st.busFreeAt
	h.BusBusyCycles = st.busBusyCycles
}

// AppendBinary appends a deterministic encoding of the snapshot to dst.
func (st *HierarchyState) AppendBinary(dst []byte) []byte {
	for _, c := range [...]*State{st.L1I, st.L1D, st.L2, st.ITLB, st.DTLB} {
		dst = c.AppendBinary(dst)
	}
	dst = binary.LittleEndian.AppendUint64(dst, st.busFreeAt)
	dst = binary.LittleEndian.AppendUint64(dst, st.busBusyCycles)
	return dst
}
