// Package isa defines the Alpha-like 64-bit RISC instruction set simulated
// by this repository, including the DISE-only extensions from the paper
// (DISE branches, DISE calls, conditional traps, codewords, and the
// d_mfr/d_mtr/d_ret instructions available to DISE-called functions).
//
// The package provides instruction encodings, a decoder, a disassembler,
// and pure functional semantics for ALU and branch operations. Memory
// access and control-flow sequencing are the simulator's job
// (internal/pipeline); this package only says what each instruction means.
package isa

import "fmt"

// Reg names an architectural register in some register space.
type Reg uint8

// Conventional application register assignments. R31 reads as zero and
// ignores writes, as on Alpha.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31

	RA   = R26 // link register
	AT   = R28 // assembler temporary
	GP   = R29 // global pointer
	SP   = R30 // stack pointer
	Zero = R31 // hardwired zero
)

// NumRegs is the number of application integer registers.
const NumRegs = 32

// NumDiseRegs is the number of registers in the private DISE register file.
// DISE registers are visible only to replacement-sequence instructions and,
// via d_mfr/d_mtr, to DISE-called functions (paper §3).
const NumDiseRegs = 16

// Conventional DISE register assignments used by the debugger's productions
// (paper Figure 2). They are ordinary DISE registers; the names are only a
// convention shared by the production generator and the generated function.
const (
	DR0 Reg = iota
	DR1
	DR2
	DR3
	DR4
	DR5
	DR6
	DR7
	DAR   // watched address (or Bloom-filter base)
	DPV   // previous value of the watched expression
	DHDLR // address of the debugger-generated function
	DSEG  // high bits of the debugger's protected data segment
	DR12
	DR13
	DR14
	DLINK // return ⟨PC:DISEPC+1⟩ of an in-flight DISE call
)

// RegSpace distinguishes the application register file from the private
// DISE register file.
type RegSpace uint8

const (
	// AppSpace is the ordinary application register file.
	AppSpace RegSpace = iota
	// DiseSpace is the private DISE register file (paper §3).
	DiseSpace
)

func (s RegSpace) String() string {
	if s == DiseSpace {
		return "dise"
	}
	return "app"
}

// Class is the coarse execution class of an instruction; the pipeline's
// scheduler and the DISE pattern matcher both key off it.
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassLoad
	ClassStore
	ClassBranch // conditional direct branch
	ClassJump   // unconditional direct or indirect jump, incl. calls
	ClassTrap   // trap, brk, ctrap
	ClassDise   // DISE-only control: d_b*, d_call, d_ccall, d_ret
	ClassHalt
)

var classNames = [...]string{
	ClassNop:    "nop",
	ClassIntALU: "intalu",
	ClassIntMul: "intmul",
	ClassLoad:   "load",
	ClassStore:  "store",
	ClassBranch: "branch",
	ClassJump:   "jump",
	ClassTrap:   "trap",
	ClassDise:   "dise",
	ClassHalt:   "halt",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Op is a semantic opcode, independent of encoding format.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota
	OpHalt
	OpTrap // unconditional trap to the debugger
	OpBrk  // breakpoint trap (distinct trap code, used by rewriting)
	OpCtrap

	OpLda
	OpLdah

	OpLdbu
	OpLdw
	OpLdl
	OpLdq

	OpStb
	OpStw
	OpStl
	OpStq

	OpAddq
	OpSubq
	OpMulq
	OpCmpeq
	OpCmplt
	OpCmple
	OpCmpult
	OpCmpule

	OpAnd
	OpBis
	OpXor
	OpBic
	OpOrnot

	OpSll
	OpSrl
	OpSra

	OpBr
	OpBsr
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBle
	OpBgt
	OpBlbc
	OpBlbs

	OpJmp
	OpJsr
	OpRet

	OpCodeword

	OpDbeq
	OpDbne
	OpDcall
	OpDccall
	OpDret
	OpDmfr
	OpDmtr

	numOps
)

// opInfo is the static metadata for one opcode.
type opInfo struct {
	name    string
	class   Class
	memSize uint8 // bytes touched by loads/stores, 0 otherwise
}

var opTable = [numOps]opInfo{
	OpNop:   {"nop", ClassNop, 0},
	OpHalt:  {"halt", ClassHalt, 0},
	OpTrap:  {"trap", ClassTrap, 0},
	OpBrk:   {"brk", ClassTrap, 0},
	OpCtrap: {"ctrap", ClassTrap, 0},

	OpLda:  {"lda", ClassIntALU, 0},
	OpLdah: {"ldah", ClassIntALU, 0},

	OpLdbu: {"ldbu", ClassLoad, 1},
	OpLdw:  {"ldw", ClassLoad, 2},
	OpLdl:  {"ldl", ClassLoad, 4},
	OpLdq:  {"ldq", ClassLoad, 8},

	OpStb: {"stb", ClassStore, 1},
	OpStw: {"stw", ClassStore, 2},
	OpStl: {"stl", ClassStore, 4},
	OpStq: {"stq", ClassStore, 8},

	OpAddq:   {"addq", ClassIntALU, 0},
	OpSubq:   {"subq", ClassIntALU, 0},
	OpMulq:   {"mulq", ClassIntMul, 0},
	OpCmpeq:  {"cmpeq", ClassIntALU, 0},
	OpCmplt:  {"cmplt", ClassIntALU, 0},
	OpCmple:  {"cmple", ClassIntALU, 0},
	OpCmpult: {"cmpult", ClassIntALU, 0},
	OpCmpule: {"cmpule", ClassIntALU, 0},

	OpAnd:   {"and", ClassIntALU, 0},
	OpBis:   {"bis", ClassIntALU, 0},
	OpXor:   {"xor", ClassIntALU, 0},
	OpBic:   {"bic", ClassIntALU, 0},
	OpOrnot: {"ornot", ClassIntALU, 0},

	OpSll: {"sll", ClassIntALU, 0},
	OpSrl: {"srl", ClassIntALU, 0},
	OpSra: {"sra", ClassIntALU, 0},

	OpBr:   {"br", ClassJump, 0},
	OpBsr:  {"bsr", ClassJump, 0},
	OpBeq:  {"beq", ClassBranch, 0},
	OpBne:  {"bne", ClassBranch, 0},
	OpBlt:  {"blt", ClassBranch, 0},
	OpBge:  {"bge", ClassBranch, 0},
	OpBle:  {"ble", ClassBranch, 0},
	OpBgt:  {"bgt", ClassBranch, 0},
	OpBlbc: {"blbc", ClassBranch, 0},
	OpBlbs: {"blbs", ClassBranch, 0},

	OpJmp: {"jmp", ClassJump, 0},
	OpJsr: {"jsr", ClassJump, 0},
	OpRet: {"ret", ClassJump, 0},

	OpCodeword: {"codeword", ClassNop, 0},

	OpDbeq:   {"d_beq", ClassDise, 0},
	OpDbne:   {"d_bne", ClassDise, 0},
	OpDcall:  {"d_call", ClassDise, 0},
	OpDccall: {"d_ccall", ClassDise, 0},
	OpDret:   {"d_ret", ClassDise, 0},
	OpDmfr:   {"d_mfr", ClassIntALU, 0},
	OpDmtr:   {"d_mtr", ClassIntALU, 0},
}

// Name returns the assembler mnemonic for op.
func (op Op) Name() string {
	if op < numOps {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

func (op Op) String() string { return op.Name() }

// Class returns the execution class of op.
func (op Op) Class() Class {
	if op < numOps {
		return opTable[op].class
	}
	return ClassNop
}

// MemSize returns the number of bytes a load or store touches (0 for
// non-memory operations).
func (op Op) MemSize() int {
	if op < numOps {
		return int(opTable[op].memSize)
	}
	return 0
}

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool { return op.Class() == ClassStore }

// IsCondBranch reports whether op is a conditional direct branch.
func (op Op) IsCondBranch() bool { return op.Class() == ClassBranch }

// OpsByName maps mnemonics to opcodes; the assembler uses it.
var OpsByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// Inst is one decoded (or template-instantiated) instruction. Register
// operands carry a RegSpace so that DISE replacement-sequence instructions
// can name private DISE registers, which have no conventional encoding
// (paper §3: replacement sequences live in the DISE engine's internal
// format, not in instruction memory).
//
// Operand roles:
//   - memory ops: RA = data register, RB = base register, Imm = displacement
//   - operate ops: RA = src1, RB/Imm = src2 (UseImm selects), RC = dest
//   - branches: RA = test register (or link for br/bsr), Imm = word offset
//   - jumps: RA = link dest, RB = target base register
//   - ctrap: RA = test register, Imm = trap code
//   - d_beq/d_bne: RA = test register, Imm = DISEPC-relative offset
//   - d_call: RB = DISE register holding the target PC
//   - d_ccall: RA = test register, RB = DISE register holding the target PC
//   - d_mfr: RC = app dest, RB = DISE src; d_mtr: RA = app src, RB = DISE dest
//   - codeword: Imm = 26-bit payload
type Inst struct {
	Op         Op
	RA, RB, RC Reg
	RASp       RegSpace
	RBSp       RegSpace
	RCSp       RegSpace
	Imm        int64
	UseImm     bool // operate format: RB is an 8-bit literal in Imm
}

// Class returns the execution class of the instruction.
func (i Inst) Class() Class { return i.Op.Class() }

// Nop is the canonical no-op instruction.
var Nop = Inst{Op: OpNop}

// Halt is the canonical halt instruction.
var Halt = Inst{Op: OpHalt}

// appendReg appends {r, sp} to dst unless it is the hardwired zero
// register. Srcs runs once per uop in the pipeline's operand-readiness
// scan, so this is a plain function rather than a closure (closures defeat
// inlining in the hot path).
func appendReg(dst []RegRef, r Reg, sp RegSpace) []RegRef {
	if sp == AppSpace && r == Zero {
		return dst
	}
	return append(dst, RegRef{r, sp})
}

// Srcs appends the source register operands of i (with spaces) to dst and
// returns it. The zero register is omitted.
func (i Inst) Srcs(dst []RegRef) []RegRef {
	switch i.Op.Class() {
	case ClassLoad:
		dst = appendReg(dst, i.RB, i.RBSp)
	case ClassStore:
		dst = appendReg(dst, i.RA, i.RASp)
		dst = appendReg(dst, i.RB, i.RBSp)
	case ClassBranch:
		dst = appendReg(dst, i.RA, i.RASp)
	case ClassJump:
		if i.Op != OpBr && i.Op != OpBsr {
			dst = appendReg(dst, i.RB, i.RBSp)
		}
	case ClassIntALU, ClassIntMul:
		switch i.Op {
		case OpLda, OpLdah:
			dst = appendReg(dst, i.RB, i.RBSp)
		case OpDmfr:
			dst = appendReg(dst, i.RB, DiseSpace)
		case OpDmtr:
			dst = appendReg(dst, i.RA, i.RASp)
		default:
			dst = appendReg(dst, i.RA, i.RASp)
			if !i.UseImm {
				dst = appendReg(dst, i.RB, i.RBSp)
			}
		}
	case ClassTrap:
		if i.Op == OpCtrap {
			dst = appendReg(dst, i.RA, i.RASp)
		}
	case ClassDise:
		switch i.Op {
		case OpDbeq, OpDbne, OpDccall:
			dst = appendReg(dst, i.RA, i.RASp)
		}
		if i.Op == OpDcall || i.Op == OpDccall {
			dst = append(dst, RegRef{i.RB, DiseSpace})
		}
	}
	return dst
}

// Dst returns the destination register of i and whether it has one.
func (i Inst) Dst() (RegRef, bool) {
	none := RegRef{Zero, AppSpace}
	switch i.Op.Class() {
	case ClassLoad:
		return RegRef{i.RA, i.RASp}, !(i.RASp == AppSpace && i.RA == Zero)
	case ClassIntALU, ClassIntMul:
		switch i.Op {
		case OpLda, OpLdah:
			return RegRef{i.RA, i.RASp}, !(i.RASp == AppSpace && i.RA == Zero)
		case OpDmfr:
			return RegRef{i.RC, i.RCSp}, !(i.RCSp == AppSpace && i.RC == Zero)
		case OpDmtr:
			return RegRef{i.RB, DiseSpace}, true
		default:
			return RegRef{i.RC, i.RCSp}, !(i.RCSp == AppSpace && i.RC == Zero)
		}
	case ClassJump:
		if i.Op == OpBsr || i.Op == OpJsr {
			return RegRef{i.RA, i.RASp}, !(i.RASp == AppSpace && i.RA == Zero)
		}
	}
	return none, false
}

// RegRef is a register operand together with its register space.
type RegRef struct {
	Reg   Reg
	Space RegSpace
}

func (r RegRef) String() string {
	if r.Space == DiseSpace {
		switch r.Reg {
		case DAR:
			return "dar"
		case DPV:
			return "dpv"
		case DHDLR:
			return "dhdlr"
		case DSEG:
			return "dseg"
		case DLINK:
			return "dlink"
		}
		return fmt.Sprintf("dr%d", r.Reg)
	}
	switch r.Reg {
	case SP:
		return "sp"
	case RA:
		return "ra"
	case GP:
		return "gp"
	case AT:
		return "at"
	case Zero:
		return "zero"
	}
	return fmt.Sprintf("r%d", r.Reg)
}
