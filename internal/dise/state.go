// Snapshot/Restore for the DISE engine. Productions themselves are
// treated as immutable values owned by whoever installed them (the
// debugger holds the same pointers for Remove-by-identity), so a snapshot
// keeps the production pointers shallow and copies only the engine-owned
// mutable state around them: the installation order, the replacement
// table's resident productions in recency order, the DISE register file,
// the pending d-call link, and statistics. Install order is the whole of
// the pattern table's state, so a restored engine, which installs the
// saved order, matches and expands identically.
package dise

import "encoding/binary"

// State is a point-in-time copy of an Engine.
type State struct {
	prods    []*Production // shallow; installation order
	active   bool
	regs     [16]uint64
	dlinkPC  uint64
	dlinkDPC int
	resident []int // indexes into prods, most recently used first
	stats    Stats
}

// Productions returns how many productions the snapshot holds.
func (st *State) Productions() int { return len(st.prods) }

// IndexOf returns the position of p in the snapshot's production table,
// or -1 if absent. Callers encoding references to productions (the
// pipeline's in-flight expansion) use this to name them by table index.
func (st *State) IndexOf(p *Production) int {
	for i, q := range st.prods {
		if q == p {
			return i
		}
	}
	return -1
}

// Production returns the production at table index i, or nil when i is
// out of range (including -1, the "none" encoding from IndexOf).
func (st *State) Production(i int) *Production {
	if i < 0 || i >= len(st.prods) {
		return nil
	}
	return st.prods[i]
}

// Snapshot captures the engine state.
func (e *Engine) Snapshot() *State {
	return &State{
		prods:    append([]*Production(nil), e.prods...),
		active:   e.Active,
		regs:     e.Regs,
		dlinkPC:  e.DLinkPC,
		dlinkDPC: e.DLinkDPC,
		resident: append([]int(nil), e.resident...),
		stats:    e.stats,
	}
}

// Restore replaces the engine state with the snapshot's. The production
// pointers are installed as-is and in the saved order (identity is
// preserved across a round trip), and so is the residency order.
// The generation moves on, as for any change of the installed set; it is
// not part of the snapshot.
func (e *Engine) Restore(st *State) {
	e.gen++
	e.prods = append(e.prods[:0:0], st.prods...)
	e.Active = st.active
	e.Regs = st.regs
	e.DLinkPC = st.dlinkPC
	e.DLinkDPC = st.dlinkDPC
	e.resident = append(e.resident[:0:0], st.resident...)
	e.stats = st.stats
}

// AppendBinary appends a deterministic encoding of the snapshot to dst.
// Productions are encoded structurally (name, pattern, replacement
// templates) in installation order; residency lists productions by table
// index in recency order.
func (st *State) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.prods)))
	for _, p := range st.prods {
		dst = appendProduction(dst, p)
	}
	dst = appendBool(dst, st.active)
	for _, r := range st.regs {
		dst = binary.LittleEndian.AppendUint64(dst, r)
	}
	dst = binary.LittleEndian.AppendUint64(dst, st.dlinkPC)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(st.dlinkDPC)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.resident)))
	for _, r := range st.resident {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r))
	}
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.Lookups)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.PatternsScanned)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.Expansions)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.InstsInserted)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.ReplMisses)
	return dst
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendProduction(dst []byte, p *Production) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(p.Name)))
	dst = append(dst, p.Name...)
	dst = appendPattern(dst, &p.Pattern)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(p.Replacement)))
	for i := range p.Replacement {
		dst = appendTemplate(dst, &p.Replacement[i])
	}
	return dst
}

// appendPattern encodes the optional match fields as a presence-flag byte
// followed by the present values in flag-bit order.
func appendPattern(dst []byte, pat *Pattern) []byte {
	var flags byte
	if pat.OpClass != nil {
		flags |= 1 << 0
	}
	if pat.Op != nil {
		flags |= 1 << 1
	}
	if pat.PC != nil {
		flags |= 1 << 2
	}
	if pat.RA != nil {
		flags |= 1 << 3
	}
	if pat.RB != nil {
		flags |= 1 << 4
	}
	if pat.Codeword != nil {
		flags |= 1 << 5
	}
	dst = append(dst, flags)
	if pat.OpClass != nil {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(*pat.OpClass))
	}
	if pat.Op != nil {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(*pat.Op))
	}
	if pat.PC != nil {
		dst = binary.LittleEndian.AppendUint64(dst, *pat.PC)
	}
	if pat.RA != nil {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(*pat.RA))
	}
	if pat.RB != nil {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(*pat.RB))
	}
	if pat.Codeword != nil {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(*pat.Codeword))
	}
	return dst
}

func appendTemplate(dst []byte, t *TemplateInst) []byte {
	var flags byte
	if t.UseTrigger {
		flags |= 1 << 0
	}
	if t.OpFromTrigger {
		flags |= 1 << 1
	}
	if t.ImmFromTrigger {
		flags |= 1 << 2
	}
	if t.Inst.UseImm {
		flags |= 1 << 3
	}
	dst = append(dst, flags)
	dst = append(dst, byte(t.RAFrom), byte(t.RBFrom), byte(t.RCFrom))
	dst = append(dst, byte(t.Inst.Op),
		byte(t.Inst.RA), byte(t.Inst.RB), byte(t.Inst.RC),
		byte(t.Inst.RASp), byte(t.Inst.RBSp), byte(t.Inst.RCSp))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Inst.Imm))
	return dst
}
