// Package rewrite implements static binary transformation: the
// conventional (pre-DISE) way to embed debugger logic into an application
// (§2, §5.1, Figure 5). It decodes a program's text segment, replaces
// selected instructions with inline sequences, rebuilds the layout, and
// retargets all PC-relative control flow — the "cumbersome" machinery
// (register scavenging, branch retargeting, code bloat) that the paper's
// DISE proposal makes unnecessary.
package rewrite

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// ExpandFunc maps one original instruction to its replacement sequence.
// Returning a nil sequence keeps the instruction unchanged. origIdx is the
// index within seq of the original instruction (whose control-flow target,
// if any, is retargeted); inserted instructions keep their displacements,
// so their branches must stay within the sequence.
type ExpandFunc func(inst isa.Inst, pc uint64) (seq []isa.Inst, origIdx int)

// Transform rewrites p by applying expand to every instruction. It returns
// the new program and a map from old instruction addresses to new ones
// (for breakpoint and statement remapping). The new program shares p's
// Data, which never changes once assembled.
func Transform(p *asm.Program, expand ExpandFunc) (*asm.Program, map[uint64]uint64, error) {
	n := len(p.Text)
	type slot struct {
		seq     []isa.Inst
		origIdx int
	}
	slots := make([]slot, n)
	newIdx := make([]int, n+1) // new index of each old instruction's sequence start
	total := 0
	for i, w := range p.Text {
		inst := isa.Decode(w)
		seq, orig := expand(inst, p.TextBase+uint64(i)*4)
		if seq == nil {
			seq, orig = []isa.Inst{inst}, 0
		}
		if orig < 0 || orig >= len(seq) {
			return nil, nil, fmt.Errorf("rewrite: bad origIdx %d for sequence of %d", orig, len(seq))
		}
		slots[i] = slot{seq: seq, origIdx: orig}
		newIdx[i] = total
		total += len(seq)
	}
	newIdx[n] = total

	oldIdxOf := func(addr uint64) (int, error) {
		if addr < p.TextBase || addr >= p.TextBase+uint64(n)*4 || (addr-p.TextBase)%4 != 0 {
			return 0, fmt.Errorf("rewrite: branch target %#x outside text", addr)
		}
		return int(addr-p.TextBase) / 4, nil
	}

	newText := make([]uint32, 0, total)
	for i := range slots {
		for j, inst := range slots[i].seq {
			cur := inst
			isOrig := j == slots[i].origIdx
			if isOrig && isPCRelative(cur.Op) {
				oldPC := p.TextBase + uint64(i)*4
				oldTarget := isa.BranchTarget(oldPC, cur.Imm)
				ti, err := oldIdxOf(oldTarget)
				if err != nil {
					return nil, nil, err
				}
				// Branches land on the start of the target's sequence: the
				// checks guarding an expanded instruction must run no
				// matter how control reaches it.
				newPCIdx := newIdx[i] + j
				cur.Imm = int64(newIdx[ti]) - int64(newPCIdx) - 1
			}
			w, err := isa.Encode(cur)
			if err != nil {
				return nil, nil, fmt.Errorf("rewrite: at old %#x: %w", p.TextBase+uint64(i)*4, err)
			}
			newText = append(newText, w)
		}
	}

	addrMap := make(map[uint64]uint64, n)
	for i := 0; i < n; i++ {
		oldPC := p.TextBase + uint64(i)*4
		addrMap[oldPC] = p.TextBase + uint64(newIdx[i]+slots[i].origIdx)*4
	}

	out := &asm.Program{
		TextBase: p.TextBase,
		Text:     newText,
		DataBase: p.DataBase,
		Data:     p.Data,
		Symbols:  make(map[string]uint64, len(p.Symbols)),
	}
	remap := func(a uint64) uint64 {
		if na, ok := addrMap[a]; ok {
			return na
		}
		return a
	}
	out.Entry = remap(p.Entry)
	for name, a := range p.Symbols {
		out.Symbols[name] = remap(a)
	}
	for _, s := range p.Statements {
		out.Statements = append(out.Statements, remap(s))
	}
	return out, addrMap, nil
}

func isPCRelative(op isa.Op) bool {
	switch op.Class() {
	case isa.ClassBranch:
		return true
	case isa.ClassJump:
		return op == isa.OpBr || op == isa.OpBsr
	}
	return false
}

// UsesRegisters reports whether any instruction in the program reads or
// writes one of the given registers. The rewriting debugger backend
// scavenges registers; this is its safety check (real systems re-allocate
// registers instead, §2).
func UsesRegisters(p *asm.Program, regs ...isa.Reg) bool {
	want := map[isa.Reg]bool{}
	for _, r := range regs {
		want[r] = true
	}
	var buf [3]isa.RegRef
	for _, w := range p.Text {
		inst := isa.Decode(w)
		for _, s := range inst.Srcs(buf[:0]) {
			if s.Space == isa.AppSpace && want[s.Reg] {
				return true
			}
		}
		if d, ok := inst.Dst(); ok && d.Space == isa.AppSpace && want[d.Reg] {
			return true
		}
	}
	return false
}
