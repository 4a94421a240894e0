package rewrite

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
)

const loopProg = `
.data
.align 8
total: .quad 0
.text
main:
    la   r1, total
    li   r2, 5
    li   r3, 0
loop:
    addq r3, r2, r3
    stq  r3, 0(r1)
    subq r2, #1, r2
    bne  r2, loop
    halt
`

// expandStores inserts two nops after every store.
func expandStores(inst isa.Inst, pc uint64) ([]isa.Inst, int) {
	if !inst.Op.IsStore() {
		return nil, 0
	}
	return []isa.Inst{inst, isa.Nop, isa.Nop}, 0
}

func TestTransformPreservesSemantics(t *testing.T) {
	p, err := asm.Assemble(loopProg)
	if err != nil {
		t.Fatal(err)
	}
	newP, addrMap, err := Transform(p, expandStores)
	if err != nil {
		t.Fatal(err)
	}
	if len(newP.Text) != len(p.Text)+2*5 {
		// 5 dynamic executions but only 1 static store.
		if len(newP.Text) != len(p.Text)+2 {
			t.Fatalf("new length %d", len(newP.Text))
		}
	}
	if &newP.Data[0] != &p.Data[0] {
		t.Error("Transform copied the data image instead of sharing it")
	}
	m := machine.NewDefault()
	m.Load(newP)
	m.MustRun(0)
	if got := m.ReadQuad(newP.MustSymbol("total")); got != 5+4+3+2+1 {
		t.Errorf("total = %d, want 15", got)
	}
	if p.Data[0] != 0 {
		t.Error("the run wrote the shared data image")
	}
	// The branch target label moved consistently.
	if newP.MustSymbol("loop") != addrMap[p.MustSymbol("loop")] {
		t.Error("symbol remap mismatch")
	}
}

func TestTransformRetargetsForwardAndBackward(t *testing.T) {
	p, err := asm.Assemble(`
.data
out: .quad 0
.text
main:
    li  r1, 0
    beq r1, fwd      ; forward branch over a store
    stq r1, 0(r2)    ; skipped (and expanded)
fwd:
    la  r2, out
    li  r3, 2
back:
    stq r3, 0(r2)    ; expanded
    subq r3, #1, r3
    bne r3, back     ; backward branch across the expansion
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	newP, _, err := Transform(p, expandStores)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(newP)
	m.MustRun(0)
	if got := m.ReadQuad(newP.MustSymbol("out")); got != 1 {
		t.Errorf("out = %d, want 1", got)
	}
}

func TestTransformCallsStillWork(t *testing.T) {
	p, err := asm.Assemble(`
.data
out: .quad 0
.text
main:
    li   r16, 21
    bsr  ra, double
    la   r2, out
    stq  r0, 0(r2)
    halt
double:
    addq r16, r16, r0
    ret  (ra)
`)
	if err != nil {
		t.Fatal(err)
	}
	newP, _, err := Transform(p, expandStores)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(newP)
	m.MustRun(0)
	if got := m.ReadQuad(newP.MustSymbol("out")); got != 42 {
		t.Errorf("out = %d, want 42", got)
	}
}

func TestStatementRemap(t *testing.T) {
	p, err := asm.Assemble(`
main:
    stq r1, -8(sp)
.stmt
    nop
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	newP, _, err := Transform(p, expandStores)
	if err != nil {
		t.Fatal(err)
	}
	if len(newP.Statements) != 1 {
		t.Fatal("statement lost")
	}
	// The nop moved down by two inserted instructions.
	if newP.Statements[0] != p.Statements[0]+8 {
		t.Errorf("statement at %#x, want %#x", newP.Statements[0], p.Statements[0]+8)
	}
}

func TestUsesRegisters(t *testing.T) {
	p, err := asm.Assemble("main: addq r5, r6, r7\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if !UsesRegisters(p, isa.R5) || !UsesRegisters(p, isa.R7) {
		t.Error("should detect r5 and r7")
	}
	if UsesRegisters(p, isa.R27, isa.AT) {
		t.Error("r27/r28 are unused")
	}
}

func TestBadOrigIdx(t *testing.T) {
	p, err := asm.Assemble("main: stq r1, -8(sp)\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Transform(p, func(inst isa.Inst, pc uint64) ([]isa.Inst, int) {
		if inst.Op.IsStore() {
			return []isa.Inst{inst}, 5
		}
		return nil, 0
	})
	if err == nil {
		t.Error("want error for out-of-range origIdx")
	}
}
