// Snapshot/Restore for the whole simulated machine, composing the
// per-subsystem snapshots in internal/mem, cache, bpred, dise, and
// pipeline. A machine.State is the unit the serve layer checkpoints,
// rewinds, and (eventually) migrates; Encode gives it a deterministic
// binary form so snapshots can be hashed, diffed, and streamed.
package machine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/dise"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// State is a point-in-time copy of a Machine. It is immutable once built
// and independent of the machine it came from: restoring it into any
// machine built with the same Config — including a freshly pooled one —
// reproduces the captured execution bit-identically.
type State struct {
	Cfg Config

	Mem    *mem.State
	Hier   *cache.HierarchyState
	BP     *bpred.State
	Engine *dise.State
	Core   *pipeline.State

	program    *asm.Program // shallow: programs are immutable once built
	textAppend uint64
	dataAppend uint64
}

// Snapshot captures the full simulated state: memory pages (shared with
// the machine, which copies a page on its next write), cache and TLB
// arrays, branch-predictor tables, the DISE engine, and the pipeline core
// with its timing structures.
func (m *Machine) Snapshot() *State {
	return &State{
		Cfg:        m.Cfg,
		Mem:        m.Mem.Snapshot(),
		Hier:       m.Hier.Snapshot(),
		BP:         m.Core.BP.Snapshot(),
		Engine:     m.Engine.Snapshot(),
		Core:       m.Core.Snapshot(),
		program:    m.Program,
		textAppend: m.textAppend,
		dataAppend: m.dataAppend,
	}
}

// Restore replaces the machine state with the snapshot's. The machine
// must have been built with the snapshot's Config (Restore panics
// otherwise — geometry mismatches must be loud). Memory is restored
// first so the core's predecoded-text cache rebuilds from the right
// bytes. Debugger hooks on the core are left untouched; a debugger
// carries its own state across a restore via debug.Checkpoint.
func (m *Machine) Restore(st *State) {
	if m.Cfg != st.Cfg {
		panic(fmt.Sprintf("machine: Restore config mismatch (machine %+v, snapshot %+v)", m.Cfg, st.Cfg))
	}
	m.Mem.Restore(st.Mem)
	m.Hier.Restore(st.Hier)
	m.Core.BP.Restore(st.BP)
	m.Engine.Restore(st.Engine)
	m.Core.Restore(st.Core)
	m.Program = st.program
	m.textAppend = st.textAppend
	m.dataAppend = st.dataAppend
}

// Frame types of the Encode framing. Each frame is
// [type byte][u32 payload length][payload]; frames appear in ascending
// type order exactly once.
const (
	frameHeader byte = 1 // append cursors + program entry
	frameMem    byte = 2
	frameCore   byte = 3
	frameHier   byte = 4
	frameBpred  byte = 5
	frameDise   byte = 6
)

// Encode returns a deterministic binary encoding of the snapshot: equal
// states encode to equal bytes, so encodings can be content-hashed and
// diffed. Program text and data are not encoded separately — they live in
// the memory image — and the Config is not encoded at all (both sides of
// a transport must already agree on it to build a compatible machine).
func (st *State) Encode() []byte {
	frame := func(dst []byte, typ byte, payload []byte) []byte {
		dst = append(dst, typ)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
		return append(dst, payload...)
	}

	var hdr []byte
	hdr = binary.LittleEndian.AppendUint64(hdr, st.textAppend)
	hdr = binary.LittleEndian.AppendUint64(hdr, st.dataAppend)
	entry := uint64(0)
	hasProg := byte(0)
	if st.program != nil {
		entry = st.program.Entry
		hasProg = 1
	}
	hdr = append(hdr, hasProg)
	hdr = binary.LittleEndian.AppendUint64(hdr, entry)

	out := frame(nil, frameHeader, hdr)
	out = frame(out, frameMem, st.Mem.AppendBinary(nil))
	out = frame(out, frameCore, st.Core.AppendBinary(nil, st.Engine.IndexOf(st.Core.ExpansionProd())))
	out = frame(out, frameHier, st.Hier.AppendBinary(nil))
	out = frame(out, frameBpred, st.BP.AppendBinary(nil))
	out = frame(out, frameDise, st.Engine.AppendBinary(nil))
	return out
}
