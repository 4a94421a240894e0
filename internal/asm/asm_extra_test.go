package asm

import (
	"testing"

	"repro/internal/isa"
)

func TestQuadLabelFixups(t *testing.T) {
	p, err := Assemble(`
.data
a:   .quad 7
ptr: .quad a        ; label-valued quad
mix: .quad 1, a, 2  ; mixed literal and label operands
.text
main: halt
`)
	if err != nil {
		t.Fatal(err)
	}
	get := func(sym string, off uint64) uint64 {
		base := p.MustSymbol(sym) - p.DataBase + off
		v := uint64(0)
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(p.Data[base+uint64(i)])
		}
		return v
	}
	if got := get("ptr", 0); got != p.MustSymbol("a") {
		t.Errorf("ptr = %#x, want &a = %#x", got, p.MustSymbol("a"))
	}
	if get("mix", 0) != 1 || get("mix", 8) != p.MustSymbol("a") || get("mix", 16) != 2 {
		t.Error("mixed .quad operands wrong")
	}
}

func TestQuadLabelUndefined(t *testing.T) {
	if _, err := Assemble(".data\np: .quad nowhere\n.text\nmain: halt\n"); err == nil {
		t.Error("want undefined-label error for data fixup")
	}
}

func TestTextQuadLabelPointsIntoText(t *testing.T) {
	// Jump tables: data quads can hold text addresses.
	p, err := Assemble(`
.data
table: .quad f1, f2
.text
main: halt
f1: nop
    ret (ra)
f2: nop
    ret (ra)
`)
	if err != nil {
		t.Fatal(err)
	}
	off := p.MustSymbol("table") - p.DataBase
	v := uint64(0)
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(p.Data[off+uint64(i)])
	}
	if v != p.MustSymbol("f1") {
		t.Errorf("table[0] = %#x, want f1 = %#x", v, p.MustSymbol("f1"))
	}
}

// TestTakesTextAddress: a program takes a text address when an la or a
// .quad names a text label, and not through a data label or a branch.
func TestTakesTextAddress(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      bool
	}{
		{"la data", ".data\nv: .quad 0\n.text\nmain: la r1, v\n    br main", false},
		{"quad data", ".data\nv: .quad 0\np: .quad v\n.text\nmain: bsr ra, f\n    halt\nf: ret (ra)", false},
		{"la text", ".text\nmain: la r4, f\n    jmp (r4)\nf: halt", true},
		{"quad text", ".data\ntable: .quad f\n.text\nmain: halt\nf: halt", true},
	} {
		p, err := Assemble(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.TakesTextAddress != c.want {
			t.Errorf("%s: TakesTextAddress = %v, want %v", c.name, p.TakesTextAddress, c.want)
		}
	}
}

func TestDiseInstructionSyntax(t *testing.T) {
	p, err := Assemble(`
main:
    d_mfr r20, dr1
    d_mtr dar, r20
    d_call dhdlr
    d_ccall r5, dhdlr
    d_ret
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []isa.Op{isa.OpDmfr, isa.OpDmtr, isa.OpDcall, isa.OpDccall, isa.OpDret, isa.OpHalt}
	for i, want := range wantOps {
		if got := isa.Decode(p.Text[i]).Op; got != want {
			t.Errorf("inst %d = %v, want %v", i, got, want)
		}
	}
	// d_mtr dar, r20: DISE destination register is dar (dr8).
	in := isa.Decode(p.Text[1])
	if in.RB != isa.DAR || in.RBSp != isa.DiseSpace || in.RA != isa.R20 {
		t.Errorf("d_mtr decoded %v", in)
	}
}

func TestDiseRegParseErrors(t *testing.T) {
	for _, src := range []string{
		"main: d_mfr r20, r1\n",   // second operand must be a DISE register
		"main: d_call r5\n",       // target must be a DISE register
		"main: d_mtr dr99, r1\n",  // out of range
		"main: d_ccall dr1, r5\n", // operands swapped
	} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestOpsByNameComplete(t *testing.T) {
	// Every opcode must be reachable by name (the assembler relies on it).
	for _, name := range []string{"ldq", "stq", "addq", "cmpule", "ornot", "sra",
		"blbs", "jsr", "codeword", "d_beq", "d_ccall", "ctrap"} {
		if _, ok := isa.OpsByName[name]; !ok {
			t.Errorf("OpsByName missing %q", name)
		}
	}
}
