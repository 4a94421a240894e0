package asm

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Builder assembles a program instruction by instruction. Branch targets
// may be labels defined before or after the referencing instruction;
// Finish resolves them. The zero Builder is not ready for use; call New.
type Builder struct {
	textBase uint64
	dataBase uint64

	insts  []pending
	data   []byte
	labels map[string]uint64 // absolute addresses, text and data
	stmts  []uint64
	entry  string
	errs   []error

	dataFixups []dataFixup // label-valued quads patched at Finish

	nextStmt bool

	textLabels map[string]bool // the labels Label defined, a subset of labels
}

type dataFixup struct {
	off   int // byte offset into data
	label string
}

type pending struct {
	inst  isa.Inst
	label string // if non-empty, Imm is patched with the word offset to label
}

// New returns a Builder with the default segment layout.
func New() *Builder {
	return NewAt(DefaultTextBase, DefaultDataBase)
}

// NewAt returns a Builder with explicit text and data base addresses.
func NewAt(textBase, dataBase uint64) *Builder {
	return &Builder{
		textBase:   textBase,
		dataBase:   dataBase,
		labels:     make(map[string]uint64),
		textLabels: make(map[string]bool),
	}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("asm: "+format, args...))
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() uint64 { return b.textBase + uint64(len(b.insts))*4 }

// DataAddr returns the address of the next data byte to be emitted.
func (b *Builder) DataAddr() uint64 { return b.dataBase + uint64(len(b.data)) }

// Label defines a text label at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errf("duplicate label %q", name)
		return
	}
	b.labels[name] = b.PC()
	b.textLabels[name] = true
}

// Entry marks the label execution starts at; defaults to the text base.
func (b *Builder) Entry(label string) { b.entry = label }

// Stmt marks the next emitted instruction as the start of a source-level
// statement.
func (b *Builder) Stmt() { b.nextStmt = true }

// Emit appends a raw instruction.
func (b *Builder) Emit(i isa.Inst) {
	if b.nextStmt {
		b.stmts = append(b.stmts, b.PC())
		b.nextStmt = false
	}
	b.insts = append(b.insts, pending{inst: i})
}

func (b *Builder) emitLabeled(i isa.Inst, label string) {
	if b.nextStmt {
		b.stmts = append(b.stmts, b.PC())
		b.nextStmt = false
	}
	b.insts = append(b.insts, pending{inst: i, label: label})
}

// --- instruction helpers -------------------------------------------------

// Op3 emits a three-register operate instruction: op ra, rb, rc.
func (b *Builder) Op3(op isa.Op, ra, rb, rc isa.Reg) {
	b.Emit(isa.Inst{Op: op, RA: ra, RB: rb, RC: rc})
}

// OpI emits an operate instruction with an 8-bit literal: op ra, #lit, rc.
func (b *Builder) OpI(op isa.Op, ra isa.Reg, lit int64, rc isa.Reg) {
	if lit < 0 || lit > 255 {
		b.errf("%v literal %d out of range [0,255]", op, lit)
		lit = 0
	}
	b.Emit(isa.Inst{Op: op, RA: ra, Imm: lit, UseImm: true, RC: rc})
}

// Mem emits a load or store: op ra, disp(rb).
func (b *Builder) Mem(op isa.Op, ra isa.Reg, disp int64, rb isa.Reg) {
	b.Emit(isa.Inst{Op: op, RA: ra, RB: rb, Imm: disp})
}

// Lda emits lda ra, disp(rb).
func (b *Builder) Lda(ra isa.Reg, disp int64, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpLda, RA: ra, RB: rb, Imm: disp})
}

// Ldah emits ldah ra, disp(rb).
func (b *Builder) Ldah(ra isa.Reg, disp int64, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpLdah, RA: ra, RB: rb, Imm: disp})
}

// La materializes the absolute address of a label into ra using an
// ldah/lda pair. It works for any label below 2^31.
func (b *Builder) La(ra isa.Reg, label string) {
	// Patched in Finish: we emit ldah+lda with a label reference carried
	// on the lda; the ldah's displacement is fixed up at resolve time.
	b.emitLabeled(isa.Inst{Op: isa.OpLdah, RA: ra, RB: isa.Zero}, "hi:"+label)
	b.emitLabeled(isa.Inst{Op: isa.OpLda, RA: ra, RB: ra}, "lo:"+label)
}

// Li materializes a small constant (fits in signed 16 bits) into ra.
func (b *Builder) Li(ra isa.Reg, v int64) {
	if v < -(1<<15) || v >= 1<<15 {
		b.errf("Li constant %d out of range; use La or Li32", v)
		v = 0
	}
	b.Lda(ra, v, isa.Zero)
}

// Li32 materializes any 32-bit constant into ra via ldah/lda.
func (b *Builder) Li32(ra isa.Reg, v int64) {
	lo := int64(int16(uint16(v & 0xFFFF)))
	hi := (v - lo) >> 16
	if hi < -(1<<15) || hi >= 1<<15 {
		b.errf("Li32 constant %d out of range", v)
		hi, lo = 0, 0
	}
	b.Ldah(ra, hi, isa.Zero)
	if lo != 0 {
		b.Lda(ra, lo, ra)
	} else {
		// Keep the two-instruction shape so code size is predictable.
		b.Emit(isa.Inst{Op: isa.OpNop})
	}
}

// Br emits an unconditional branch to a label.
func (b *Builder) Br(label string) {
	b.emitLabeled(isa.Inst{Op: isa.OpBr, RA: isa.Zero}, label)
}

// Bsr emits a branch-subroutine to a label, linking in ra.
func (b *Builder) Bsr(ra isa.Reg, label string) {
	b.emitLabeled(isa.Inst{Op: isa.OpBsr, RA: ra}, label)
}

// CondBr emits a conditional branch to a label: op ra, label.
func (b *Builder) CondBr(op isa.Op, ra isa.Reg, label string) {
	if !op.IsCondBranch() {
		b.errf("CondBr with non-branch opcode %v", op)
		return
	}
	b.emitLabeled(isa.Inst{Op: op, RA: ra}, label)
}

// Jmp emits an indirect jump through rb.
func (b *Builder) Jmp(rb isa.Reg) { b.Emit(isa.Inst{Op: isa.OpJmp, RB: rb}) }

// Jsr emits an indirect call through rb, linking in ra.
func (b *Builder) Jsr(ra, rb isa.Reg) { b.Emit(isa.Inst{Op: isa.OpJsr, RA: ra, RB: rb}) }

// Ret emits a return through rb (conventionally the ra register).
func (b *Builder) Ret(rb isa.Reg) { b.Emit(isa.Inst{Op: isa.OpRet, RB: rb}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Nop) }

// Halt emits a halt.
func (b *Builder) Halt() { b.Emit(isa.Halt) }

// Trap emits an unconditional debugger trap.
func (b *Builder) Trap() { b.Emit(isa.Inst{Op: isa.OpTrap}) }

// Codeword emits a DISE codeword with the given payload (paper §4.1).
func (b *Builder) Codeword(payload int64) {
	b.Emit(isa.Inst{Op: isa.OpCodeword, Imm: payload})
}

// --- data ----------------------------------------------------------------

// DataLabel defines a data label at the current data address.
func (b *Builder) DataLabel(name string) {
	if _, dup := b.labels[name]; dup {
		b.errf("duplicate label %q", name)
		return
	}
	b.labels[name] = b.DataAddr()
}

// Quad appends 64-bit little-endian values to the data segment.
func (b *Builder) Quad(vs ...uint64) {
	for _, v := range vs {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		b.data = append(b.data, buf[:]...)
	}
}

// QuadLabel appends a 64-bit slot that Finish fills with the address of
// the named label (usable for pointers into text or data, e.g. linked
// structures and jump tables).
func (b *Builder) QuadLabel(label string) {
	b.dataFixups = append(b.dataFixups, dataFixup{off: len(b.data), label: label})
	b.Quad(0)
}

// Long appends 32-bit little-endian values.
func (b *Builder) Long(vs ...uint32) {
	for _, v := range vs {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		b.data = append(b.data, buf[:]...)
	}
}

// Bytes appends raw bytes.
func (b *Builder) Bytes(p []byte) { b.data = append(b.data, p...) }

// Space appends n zero bytes and returns them, so a caller can fill a
// large table in place. The slice aliases the data segment until the
// next data append, so fill it first.
func (b *Builder) Space(n int) []byte {
	b.data = append(b.data, make([]byte, n)...)
	return b.data[len(b.data)-n:]
}

// DataAlign pads the data segment to the given power-of-two alignment.
// Aligning to the page size gives workloads precise control over which
// variables share a page — the property the virtual-memory watchpoint
// implementation is sensitive to (paper §5.1).
func (b *Builder) DataAlign(align uint64) {
	if align == 0 || align&(align-1) != 0 {
		b.errf("DataAlign %d is not a power of two", align)
		return
	}
	b.Space(int((align - b.DataAddr()%align) % align))
}

// --- finishing -----------------------------------------------------------

// Finish resolves labels and returns the assembled program. Call it once:
// the program may take over the builder's data buffer.
func (b *Builder) Finish() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	text := make([]uint32, len(b.insts))
	takesText := false
	for idx, p := range b.insts {
		inst := p.inst
		if p.label != "" {
			if err := b.resolve(&inst, p.label, idx); err != nil {
				return nil, err
			}
			// An la's lda names its label's address; a branch's label is
			// PC-relative.
			takesText = takesText || strings.HasPrefix(p.label, "lo:") && b.textLabels[p.label[3:]]
		}
		w, err := isa.Encode(inst)
		if err != nil {
			return nil, fmt.Errorf("asm: at %#x: %w", b.textBase+uint64(idx)*4, err)
		}
		text[idx] = w
	}
	// The program takes the data buffer itself when it is exactly full, as
	// after a large Space, and a copy otherwise, so that Data never holds
	// on to the spare capacity of append growth.
	data := b.data
	if cap(data) != len(data) {
		data = append([]byte(nil), data...)
	}
	for _, fx := range b.dataFixups {
		a, ok := b.labels[fx.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q in data", fx.label)
		}
		binary.LittleEndian.PutUint64(data[fx.off:], a)
		takesText = takesText || b.textLabels[fx.label]
	}
	entry := b.textBase
	if b.entry != "" {
		a, ok := b.labels[b.entry]
		if !ok {
			return nil, fmt.Errorf("asm: undefined entry label %q", b.entry)
		}
		entry = a
	}
	symbols := make(map[string]uint64, len(b.labels))
	for k, v := range b.labels {
		symbols[k] = v
	}
	return &Program{
		TextBase:         b.textBase,
		Text:             text,
		DataBase:         b.dataBase,
		Data:             data,
		Entry:            entry,
		Symbols:          symbols,
		Statements:       append([]uint64(nil), b.stmts...),
		TakesTextAddress: takesText,
	}, nil
}

func (b *Builder) resolve(inst *isa.Inst, label string, idx int) error {
	pc := b.textBase + uint64(idx)*4
	switch {
	case len(label) > 3 && label[:3] == "hi:":
		addr, ok := b.labels[label[3:]]
		if !ok {
			return fmt.Errorf("asm: undefined label %q at %#x", label[3:], pc)
		}
		lo := int64(int16(uint16(addr & 0xFFFF)))
		inst.Imm = (int64(addr) - lo) >> 16
	case len(label) > 3 && label[:3] == "lo:":
		addr, ok := b.labels[label[3:]]
		if !ok {
			return fmt.Errorf("asm: undefined label %q at %#x", label[3:], pc)
		}
		inst.Imm = int64(int16(uint16(addr & 0xFFFF)))
	default:
		addr, ok := b.labels[label]
		if !ok {
			return fmt.Errorf("asm: undefined label %q at %#x", label, pc)
		}
		inst.Imm = (int64(addr) - int64(pc) - 4) / 4
	}
	return nil
}

// MustFinish is Finish for generators that construct known-good code.
func (b *Builder) MustFinish() *Program {
	p, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return p
}
