package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Assemble parses the textual assembly dialect shared with the Builder and
// returns the assembled program.
//
// Syntax overview (one item per line; ';' starts a comment — '#' cannot,
// since it introduces operate-format literals):
//
//	.text / .data            switch sections
//	.entry LABEL             set the entry point
//	.stmt                    next instruction starts a source statement
//	.quad V, V ...           emit 64-bit data values
//	.long V, V ...           emit 32-bit data values
//	.space N                 emit N zero bytes
//	.align N                 pad data to N-byte alignment
//	LABEL:                   define a label in the current section
//	op operands              an instruction, e.g.:
//	    ldq r4, 32(sp)       memory
//	    addq r1, r2, r3      operate, register form
//	    addq r1, #8, r3      operate, 8-bit literal form
//	    beq r1, loop         branch to label
//	    br done              unconditional branch
//	    bsr ra, func         call
//	    jmp (r5) / jsr ra, (r5) / ret (ra)
//	    la r1, symbol        load address pseudo-op (expands to ldah+lda)
//	    li r1, 42            load immediate pseudo-op
//	    ctrap r1 / trap / halt / nop / codeword 7
//
// .space and .align may not grow the data image past MaxTextData bytes.
func Assemble(src string) (*Program, error) {
	return AssembleAt(src, DefaultTextBase, DefaultDataBase)
}

// AssembleAt is Assemble with explicit segment bases.
func AssembleAt(src string, textBase, dataBase uint64) (*Program, error) {
	b := NewAt(textBase, dataBase)
	inData := false
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := assembleLine(b, line, &inData); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", ln+1, err)
		}
	}
	return b.Finish()
}

func assembleLine(b *Builder, line string, inData *bool) error {
	// Labels (possibly followed by more on the same line).
	for {
		i := strings.Index(line, ":")
		if i < 0 || strings.ContainsAny(line[:i], " \t(,") {
			break
		}
		name := line[:i]
		if *inData {
			b.DataLabel(name)
		} else {
			b.Label(name)
		}
		line = strings.TrimSpace(line[i+1:])
		if line == "" {
			return nil
		}
	}
	fields := strings.SplitN(line, " ", 2)
	mnem := strings.ToLower(fields[0])
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	if strings.HasPrefix(mnem, ".") {
		return directive(b, mnem, rest, inData)
	}
	return instruction(b, mnem, rest)
}

func directive(b *Builder, mnem, rest string, inData *bool) error {
	switch mnem {
	case ".text":
		*inData = false
	case ".data":
		*inData = true
	case ".entry":
		b.Entry(rest)
	case ".stmt":
		b.Stmt()
	case ".quad":
		for _, f := range strings.Split(rest, ",") {
			f = strings.TrimSpace(f)
			if v, err := strconv.ParseInt(f, 0, 64); err == nil {
				b.Quad(uint64(v))
				continue
			}
			if u, err := strconv.ParseUint(f, 0, 64); err == nil {
				b.Quad(u)
				continue
			}
			// Not an integer: a label reference, resolved at Finish.
			b.QuadLabel(f)
		}
	case ".long":
		vs, err := parseInts(rest)
		if err != nil {
			return err
		}
		for _, v := range vs {
			b.Long(uint32(v))
		}
	case ".space":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Errorf("bad .space operand %q", rest)
		}
		if n < 0 {
			return fmt.Errorf(".space %d is negative", n)
		}
		if err := checkDataGrowth(b, uint64(n)); err != nil {
			return err
		}
		b.Space(n)
	case ".align":
		n, err := strconv.ParseUint(rest, 0, 64)
		if err != nil {
			return fmt.Errorf("bad .align operand %q", rest)
		}
		if n != 0 && n&(n-1) == 0 {
			// The padding to the next multiple of n (DataAlign rejects
			// the other alignments itself).
			if err := checkDataGrowth(b, -b.DataAddr()&(n-1)); err != nil {
				return err
			}
		}
		b.DataAlign(n)
	default:
		return fmt.Errorf("unknown directive %q", mnem)
	}
	return nil
}

// MaxTextData caps the data image the text assembler lets .space and
// .align build: 4 MiB, the largest request line the debug service reads,
// so a one-line program cannot make the assembler allocate more than a
// request could carry. Programs built directly with a Builder are not
// capped.
const MaxTextData = 4 << 20

// checkDataGrowth rejects growing b's data image by n bytes when that
// would take it past MaxTextData. It runs before anything is allocated.
func checkDataGrowth(b *Builder, n uint64) error {
	if have := uint64(len(b.data)); have > MaxTextData || n > MaxTextData-have {
		return fmt.Errorf("data image of %d bytes cannot grow by %d: the cap is %d bytes", have, n, MaxTextData)
	}
	return nil
}

func parseInts(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		v, err := strconv.ParseInt(f, 0, 64)
		if err != nil {
			u, uerr := strconv.ParseUint(f, 0, 64)
			if uerr != nil {
				return nil, fmt.Errorf("bad integer %q", f)
			}
			v = int64(u)
		}
		out = append(out, v)
	}
	return out, nil
}

var regNames = map[string]isa.Reg{
	"sp": isa.SP, "ra": isa.RA, "gp": isa.GP, "at": isa.AT, "zero": isa.Zero,
}

var diseRegNames = map[string]isa.Reg{
	"dar": isa.DAR, "dpv": isa.DPV, "dhdlr": isa.DHDLR, "dseg": isa.DSEG, "dlink": isa.DLINK,
}

func parseDiseReg(s string) (isa.Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if r, ok := diseRegNames[s]; ok {
		return r, nil
	}
	if strings.HasPrefix(s, "dr") {
		n, err := strconv.Atoi(s[2:])
		if err == nil && n >= 0 && n < isa.NumDiseRegs {
			return isa.Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad DISE register %q", s)
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if r, ok := regNames[s]; ok {
		return r, nil
	}
	if strings.HasPrefix(s, "r") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return isa.Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

func splitOperands(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(f))
	}
	if len(out) == 1 && out[0] == "" {
		return nil
	}
	return out
}

// parseMem parses "disp(reg)" or "(reg)".
func parseMem(s string) (int64, isa.Reg, error) {
	open := strings.Index(s, "(")
	close := strings.LastIndex(s, ")")
	if open < 0 || close < open {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	disp := int64(0)
	if ds := strings.TrimSpace(s[:open]); ds != "" {
		v, err := strconv.ParseInt(ds, 0, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad displacement %q", ds)
		}
		disp = v
	}
	reg, err := parseReg(s[open+1 : close])
	return disp, reg, err
}

func instruction(b *Builder, mnem, rest string) error {
	ops := splitOperands(rest)
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mnem, n, len(ops))
		}
		return nil
	}
	switch mnem {
	case "nop":
		b.Nop()
		return nil
	case "halt":
		b.Halt()
		return nil
	case "trap":
		b.Trap()
		return nil
	case "brk":
		b.Emit(isa.Inst{Op: isa.OpBrk})
		return nil
	case "ctrap":
		if err := need(1); err != nil {
			return err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b.Emit(isa.Inst{Op: isa.OpCtrap, RA: ra})
		return nil
	case "codeword":
		if err := need(1); err != nil {
			return err
		}
		v, err := strconv.ParseInt(ops[0], 0, 64)
		if err != nil {
			return fmt.Errorf("bad codeword payload %q", ops[0])
		}
		b.Codeword(v)
		return nil
	case "d_ret":
		b.Emit(isa.Inst{Op: isa.OpDret})
		return nil
	case "d_call":
		if err := need(1); err != nil {
			return err
		}
		dr, err := parseDiseReg(ops[0])
		if err != nil {
			return err
		}
		b.Emit(isa.Inst{Op: isa.OpDcall, RB: dr, RBSp: isa.DiseSpace})
		return nil
	case "d_ccall":
		if err := need(2); err != nil {
			return err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		dr, err := parseDiseReg(ops[1])
		if err != nil {
			return err
		}
		b.Emit(isa.Inst{Op: isa.OpDccall, RA: ra, RB: dr, RBSp: isa.DiseSpace})
		return nil
	case "d_mfr":
		// d_mfr rd, drs — move DISE register into app register.
		if err := need(2); err != nil {
			return err
		}
		rc, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		dr, err := parseDiseReg(ops[1])
		if err != nil {
			return err
		}
		b.Emit(isa.Inst{Op: isa.OpDmfr, RB: dr, RBSp: isa.DiseSpace, RC: rc})
		return nil
	case "d_mtr":
		// d_mtr drd, rs — move app register into DISE register.
		if err := need(2); err != nil {
			return err
		}
		dr, err := parseDiseReg(ops[0])
		if err != nil {
			return err
		}
		ra, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		b.Emit(isa.Inst{Op: isa.OpDmtr, RA: ra, RB: dr, RBSp: isa.DiseSpace})
		return nil
	case "la":
		if err := need(2); err != nil {
			return err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b.La(ra, ops[1])
		return nil
	case "li":
		if err := need(2); err != nil {
			return err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(ops[1], 0, 64)
		if err != nil {
			return fmt.Errorf("bad immediate %q", ops[1])
		}
		if v >= -(1<<15) && v < 1<<15 {
			b.Li(ra, v)
		} else {
			b.Li32(ra, v)
		}
		return nil
	case "br":
		if err := need(1); err != nil {
			return err
		}
		b.Br(ops[0])
		return nil
	case "bsr":
		if err := need(2); err != nil {
			return err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b.Bsr(ra, ops[1])
		return nil
	case "jmp":
		if err := need(1); err != nil {
			return err
		}
		_, rb, err := parseMem(ops[0])
		if err != nil {
			return err
		}
		b.Jmp(rb)
		return nil
	case "jsr":
		if err := need(2); err != nil {
			return err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		_, rb, err := parseMem(ops[1])
		if err != nil {
			return err
		}
		b.Jsr(ra, rb)
		return nil
	case "ret":
		if err := need(1); err != nil {
			return err
		}
		_, rb, err := parseMem(ops[0])
		if err != nil {
			return err
		}
		b.Ret(rb)
		return nil
	}

	op, ok := isa.OpsByName[mnem]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	switch op.Class() {
	case isa.ClassLoad, isa.ClassStore:
		if err := need(2); err != nil {
			return err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		disp, rb, err := parseMem(ops[1])
		if err != nil {
			return err
		}
		b.Mem(op, ra, disp, rb)
		return nil
	case isa.ClassBranch:
		if err := need(2); err != nil {
			return err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b.CondBr(op, ra, ops[1])
		return nil
	}
	switch op {
	case isa.OpLda, isa.OpLdah:
		if err := need(2); err != nil {
			return err
		}
		ra, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		disp, rb, err := parseMem(ops[1])
		if err != nil {
			return err
		}
		b.Emit(isa.Inst{Op: op, RA: ra, RB: rb, Imm: disp})
		return nil
	}
	// Operate: op ra, rb|#lit, rc.
	if err := need(3); err != nil {
		return err
	}
	ra, err := parseReg(ops[0])
	if err != nil {
		return err
	}
	rc, err := parseReg(ops[2])
	if err != nil {
		return err
	}
	if strings.HasPrefix(ops[1], "#") {
		lit, err := strconv.ParseInt(ops[1][1:], 0, 64)
		if err != nil {
			return fmt.Errorf("bad literal %q", ops[1])
		}
		b.OpI(op, ra, lit, rc)
		return nil
	}
	rb, err := parseReg(ops[1])
	if err != nil {
		return err
	}
	b.Op3(op, ra, rb, rc)
	return nil
}
