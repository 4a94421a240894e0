// Package dise implements the DISE (dynamic instruction stream editing)
// engine from Corliss, Lewis & Roth: a decode-stage facility that matches
// fetched instructions against patterns and replaces matches with
// parameterized instruction sequences (productions). The package provides
// the pattern language, replacement templates with trigger-field
// directives (T.OP, T.RD, T.RS1, T.IMM, T.INST), the 32-entry pattern
// table with most-specific-match semantics, a capacity-modeled replacement
// table, and the private DISE register file. The pattern table is one
// list in install order (see Engine), and a Memo keeps a static
// instruction's match and instantiated sequence until the installed set
// changes, so the fetch path scans the table and instantiates once per
// static instruction rather than once per fetch.
//
// The engine itself is purely architectural: it answers "what does this
// instruction expand to". Timing (expansion bandwidth, DISE-branch
// flushes, call/return flushes) is the pipeline's job.
package dise

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Pattern matches a single fetched instruction, possibly constrained by
// PC. A nil field is a wildcard. Patterns consider only one instruction —
// DISE does peephole transformation only (paper §3).
type Pattern struct {
	OpClass  *isa.Class // e.g. T.OPCLASS==store
	Op       *isa.Op
	PC       *uint64 // match a specific static instruction
	RA       *isa.Reg
	RB       *isa.Reg // e.g. T.RS==sp for loads off the stack pointer
	Codeword *int64   // match a DISE codeword payload
}

// Helper constructors for the common pattern shapes.

// MatchClass returns a pattern matching every instruction of class c.
func MatchClass(c isa.Class) Pattern { return Pattern{OpClass: &c} }

// MatchOp returns a pattern matching opcode op.
func MatchOp(op isa.Op) Pattern { return Pattern{Op: &op} }

// MatchPC returns a pattern matching the instruction at pc.
func MatchPC(pc uint64) Pattern { return Pattern{PC: &pc} }

// MatchCodeword returns a pattern matching a codeword with payload v.
func MatchCodeword(v int64) Pattern {
	cw := isa.OpCodeword
	return Pattern{Op: &cw, Codeword: &v}
}

// WithRB constrains the pattern's base-register field (T.RS for memory
// operations).
func (p Pattern) WithRB(r isa.Reg) Pattern { p.RB = &r; return p }

// ClassKey returns the single instruction class the pattern can match,
// when its constraints pin one down: an Op constraint implies that op's
// class, a Codeword constraint implies OpCodeword's class, and an OpClass
// constraint is the class itself. Patterns constrained only by PC or
// registers can match any class and report ok=false. A lookup skips,
// without examining it, a production whose key is not the fetched
// instruction's class.
func (p Pattern) ClassKey() (isa.Class, bool) {
	switch {
	case p.Op != nil:
		// A conflicting OpClass would make the pattern match nothing;
		// keying by the op's own class is still sound.
		return p.Op.Class(), true
	case p.Codeword != nil:
		return isa.OpCodeword.Class(), true
	case p.OpClass != nil:
		return *p.OpClass, true
	}
	return 0, false
}

// Matches reports whether the instruction at pc matches the pattern.
func (p Pattern) Matches(inst isa.Inst, pc uint64) bool {
	if p.OpClass != nil && inst.Op.Class() != *p.OpClass {
		return false
	}
	if p.Op != nil && inst.Op != *p.Op {
		return false
	}
	if p.PC != nil && pc != *p.PC {
		return false
	}
	if p.RA != nil && (inst.RA != *p.RA || inst.RASp != isa.AppSpace) {
		return false
	}
	if p.RB != nil && (inst.RB != *p.RB || inst.RBSp != isa.AppSpace) {
		return false
	}
	if p.Codeword != nil && (inst.Op != isa.OpCodeword || inst.Imm != *p.Codeword) {
		return false
	}
	return true
}

// Specificity orders overlapping patterns: "the most specific pattern
// overrides all other applicable patterns" (paper §4.2). PC and codeword
// constraints identify a unique static instruction and dominate; register
// constraints refine class/op constraints.
func (p Pattern) Specificity() int {
	s := 0
	if p.OpClass != nil {
		s++
	}
	if p.Op != nil {
		s += 2
	}
	if p.RA != nil {
		s += 4
	}
	if p.RB != nil {
		s += 4
	}
	if p.Codeword != nil {
		s += 16
	}
	if p.PC != nil {
		s += 16
	}
	return s
}

func (p Pattern) String() string {
	var parts []string
	if p.OpClass != nil {
		parts = append(parts, fmt.Sprintf("T.OPCLASS==%v", *p.OpClass))
	}
	if p.Op != nil {
		parts = append(parts, fmt.Sprintf("T.OP==%v", *p.Op))
	}
	if p.PC != nil {
		parts = append(parts, fmt.Sprintf("T.PC==%#x", *p.PC))
	}
	if p.RA != nil {
		parts = append(parts, fmt.Sprintf("T.RD==%v", isa.RegRef{Reg: *p.RA, Space: isa.AppSpace}))
	}
	if p.RB != nil {
		parts = append(parts, fmt.Sprintf("T.RS==%v", isa.RegRef{Reg: *p.RB, Space: isa.AppSpace}))
	}
	if p.Codeword != nil {
		parts = append(parts, fmt.Sprintf("T.CW==%d", *p.Codeword))
	}
	if len(parts) == 0 {
		return "T.*"
	}
	return strings.Join(parts, " & ")
}
