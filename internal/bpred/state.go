// Snapshot/Restore for the branch predictor: counter tables, global
// history, BTB ways in each set's recency order, and the return-address
// stack are copied bit-exactly so a restored predictor produces the same
// prediction/misprediction sequence the original would have.
package bpred

import "encoding/binary"

// State is a point-in-time copy of a Predictor.
type State struct {
	bimodal []uint8
	gshare  []uint8
	chooser []uint8
	history uint64
	btb     []btbWay
	ras     []uint64
	rasTop  int
	stats   Stats
}

// Snapshot captures the predictor contents and statistics.
func (p *Predictor) Snapshot() *State {
	return &State{
		bimodal: append([]uint8(nil), p.bimodal...),
		gshare:  append([]uint8(nil), p.gshare...),
		chooser: append([]uint8(nil), p.chooser...),
		history: p.history,
		btb:     append([]btbWay(nil), p.btb...),
		ras:     append([]uint64(nil), p.ras...),
		rasTop:  p.rasTop,
		stats:   p.stats,
	}
}

// Restore replaces the predictor contents and statistics with the
// snapshot's. It panics if the snapshot was taken from a predictor with
// different geometry.
func (p *Predictor) Restore(st *State) {
	if len(st.bimodal) != len(p.bimodal) || len(st.gshare) != len(p.gshare) ||
		len(st.chooser) != len(p.chooser) || len(st.ras) != len(p.ras) {
		panic("bpred: Restore geometry mismatch")
	}
	if len(st.btb) != len(p.btb) {
		panic("bpred: Restore BTB geometry mismatch")
	}
	copy(p.bimodal, st.bimodal)
	copy(p.gshare, st.gshare)
	copy(p.chooser, st.chooser)
	p.history = st.history
	copy(p.btb, st.btb)
	copy(p.ras, st.ras)
	p.rasTop = st.rasTop
	p.stats = st.stats
}

// AppendBinary appends a deterministic encoding of the snapshot to dst.
func (st *State) AppendBinary(dst []byte) []byte {
	appendBytes := func(dst []byte, b []uint8) []byte {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(b)))
		return append(dst, b...)
	}
	dst = appendBytes(dst, st.bimodal)
	dst = appendBytes(dst, st.gshare)
	dst = appendBytes(dst, st.chooser)
	dst = binary.LittleEndian.AppendUint64(dst, st.history)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.btb)))
	for _, w := range st.btb {
		dst = binary.LittleEndian.AppendUint64(dst, w.key)
		dst = binary.LittleEndian.AppendUint64(dst, w.target)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.ras)))
	for _, a := range st.ras {
		dst = binary.LittleEndian.AppendUint64(dst, a)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.rasTop))
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.CondBranches)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.CondMispredict)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.TargetLookups)
	dst = binary.LittleEndian.AppendUint64(dst, st.stats.TargetMisses)
	return dst
}
