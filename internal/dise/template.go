package dise

import (
	"fmt"

	"repro/internal/isa"
)

// FieldFrom selects a trigger field used to instantiate a template
// register operand.
type FieldFrom uint8

// Trigger field selectors. For memory operations the paper's directives
// map onto our operand roles as: T.RD = data register (RA), T.RS1 = base
// register (RB); for operate instructions T.RS1 = RA, T.RS2 = RB, and the
// destination is RC.
const (
	FromNone FieldFrom = iota
	FromRA             // trigger's RA field (T.RD for loads/stores)
	FromRB             // trigger's RB field (T.RS1 for loads/stores)
	FromRC             // trigger's RC field
)

// TemplateInst is one instruction of a replacement sequence: either the
// trigger itself (T.INST) or a parameterized instruction whose marked
// fields are filled from the trigger at expansion time.
type TemplateInst struct {
	UseTrigger bool // emit the trigger instruction unchanged (T.INST)

	Inst isa.Inst // literal fields; register spaces may name DISE registers

	OpFromTrigger  bool      // T.OP
	ImmFromTrigger bool      // T.IMM
	RAFrom         FieldFrom // fill Inst.RA from a trigger field
	RBFrom         FieldFrom
	RCFrom         FieldFrom
}

// TInst returns the T.INST template directive.
func TInst() TemplateInst { return TemplateInst{UseTrigger: true} }

// Lit returns a literal (unparameterized) template instruction.
func Lit(i isa.Inst) TemplateInst { return TemplateInst{Inst: i} }

// Instantiate fills the template's holes from the trigger instruction.
func (t TemplateInst) Instantiate(trigger isa.Inst) isa.Inst {
	if t.UseTrigger {
		return trigger
	}
	out := t.Inst
	if t.OpFromTrigger {
		out.Op = trigger.Op
	}
	if t.ImmFromTrigger {
		out.Imm = trigger.Imm
	}
	pick := func(f FieldFrom) (isa.Reg, isa.RegSpace) {
		switch f {
		case FromRA:
			return trigger.RA, trigger.RASp
		case FromRB:
			return trigger.RB, trigger.RBSp
		case FromRC:
			return trigger.RC, trigger.RCSp
		}
		return 0, isa.AppSpace
	}
	if t.RAFrom != FromNone {
		out.RA, out.RASp = pick(t.RAFrom)
	}
	if t.RBFrom != FromNone {
		out.RB, out.RBSp = pick(t.RBFrom)
	}
	if t.RCFrom != FromNone {
		out.RC, out.RCSp = pick(t.RCFrom)
	}
	return out
}

// parameterized reports whether any field of the template is filled from
// the trigger, so that its instantiation differs between triggers.
func (t *TemplateInst) parameterized() bool {
	return t.OpFromTrigger || t.ImmFromTrigger || t.RAFrom != FromNone || t.RBFrom != FromNone || t.RCFrom != FromNone
}

func (t TemplateInst) String() string {
	if t.UseTrigger {
		return "T.INST"
	}
	s := t.Inst.String()
	if t.parameterized() {
		s += " (parameterized)"
	}
	return s
}

// Convenience template constructors used by the debugger's production
// generator; they keep generated productions readable next to Figure 2.

// DReg names a DISE register operand.
func DReg(r isa.Reg) isa.RegRef { return isa.RegRef{Reg: r, Space: isa.DiseSpace} }

// AReg names an application register operand.
func AReg(r isa.Reg) isa.RegRef { return isa.RegRef{Reg: r, Space: isa.AppSpace} }

// LdaTImmTRS1 builds `lda rd, T.IMM(T.RS1)` — reconstruct a store's
// effective address into rd (Figure 2c/d step ii).
func LdaTImmTRS1(rd isa.RegRef) TemplateInst {
	return TemplateInst{
		Inst:           isa.Inst{Op: isa.OpLda, RA: rd.Reg, RASp: rd.Space},
		ImmFromTrigger: true,
		RBFrom:         FromRB,
	}
}

// Op3T builds a three-operand operate template with explicit operands.
func Op3T(op isa.Op, ra, rb, rc isa.RegRef) TemplateInst {
	return Lit(isa.Inst{
		Op: op,
		RA: ra.Reg, RASp: ra.Space,
		RB: rb.Reg, RBSp: rb.Space,
		RC: rc.Reg, RCSp: rc.Space,
	})
}

// OpIT builds an operate template with an 8-bit literal second operand.
func OpIT(op isa.Op, ra isa.RegRef, lit int64, rc isa.RegRef) TemplateInst {
	return Lit(isa.Inst{
		Op: op,
		RA: ra.Reg, RASp: ra.Space,
		Imm: lit, UseImm: true,
		RC: rc.Reg, RCSp: rc.Space,
	})
}

// MemT builds a load/store template with explicit operands.
func MemT(op isa.Op, data isa.RegRef, disp int64, base isa.RegRef) TemplateInst {
	return Lit(isa.Inst{
		Op: op,
		RA: data.Reg, RASp: data.Space,
		RB: base.Reg, RBSp: base.Space,
		Imm: disp,
	})
}

// DBranchT builds a DISE branch (d_beq/d_bne): skip counts replacement
// instructions relative to the next one, so skip=1 jumps over exactly one
// instruction, as in Figure 2a's `d bne dr1, +1`.
func DBranchT(op isa.Op, test isa.RegRef, skip int64) TemplateInst {
	if op != isa.OpDbeq && op != isa.OpDbne {
		panic(fmt.Sprintf("dise: DBranchT with %v", op))
	}
	return Lit(isa.Inst{Op: op, RA: test.Reg, RASp: test.Space, Imm: skip})
}

// DCallT builds `d_call drTarget`.
func DCallT(target isa.Reg) TemplateInst {
	return Lit(isa.Inst{Op: isa.OpDcall, RB: target, RBSp: isa.DiseSpace})
}

// DCCallT builds `d_ccall test, drTarget` (taken when test != 0).
func DCCallT(test isa.RegRef, target isa.Reg) TemplateInst {
	return Lit(isa.Inst{Op: isa.OpDccall, RA: test.Reg, RASp: test.Space, RB: target, RBSp: isa.DiseSpace})
}

// CtrapT builds `ctrap test` (trap when test != 0).
func CtrapT(test isa.RegRef) TemplateInst {
	return Lit(isa.Inst{Op: isa.OpCtrap, RA: test.Reg, RASp: test.Space})
}

// TrapT builds an unconditional trap.
func TrapT() TemplateInst { return Lit(isa.Inst{Op: isa.OpTrap}) }
