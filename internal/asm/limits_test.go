package asm

import (
	"fmt"
	"testing"
)

// dataCapAttacks are one-line programs whose data directives once made the
// assembler panic (a negative make) or allocate gigabytes; the same lines
// seed FuzzAssemble (testdata/fuzz/FuzzAssemble).
var dataCapAttacks = []string{
	"x: .space -5",
	"x: .space 99999999999",
	".data\n.align 4294967296",
}

// TestAssembleDataCap: .space and .align are rejected, before anything is
// allocated, when they would take the data image past MaxTextData; up to
// the cap they work as before.
func TestAssembleDataCap(t *testing.T) {
	for _, src := range dataCapAttacks {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want an error", src)
		}
	}
	for _, tc := range []struct {
		src string
		ok  bool
	}{
		{fmt.Sprintf(".data\nbuf: .space %d", MaxTextData), true},
		{fmt.Sprintf(".data\nbuf: .space %d", MaxTextData+1), false},
		{fmt.Sprintf(".data\n.quad 1\nbuf: .space %d", MaxTextData-8), true},
		{fmt.Sprintf(".data\n.quad 1\nbuf: .space %d", MaxTextData-7), false},
		{".data\n.quad 1\n.align 4096", true},
		{fmt.Sprintf(".data\n.quad 1\n.align %d", 2*MaxTextData), false},
		{".data\n.align 3", false}, // not a power of two
	} {
		p, err := Assemble(tc.src)
		if (err == nil) != tc.ok {
			t.Errorf("Assemble(%q) error = %v, want ok=%v", tc.src, err, tc.ok)
		}
		if err == nil && len(p.Data) > MaxTextData {
			t.Errorf("Assemble(%q) built %d data bytes, over the %d cap", tc.src, len(p.Data), MaxTextData)
		}
	}
}

// FuzzAssemble feeds arbitrary source to the text assembler, which must
// return a program or an error and never panic. Client source reaches it
// unchecked through the debug service's create op.
func FuzzAssemble(f *testing.F) {
	f.Add(".data\nv: .quad 0, -1\nw: .long 7\n.align 8\n.text\n.entry main\nmain:\n    la r1, v\n    li r10, 50\nloop:\n    stq r10, 0(r1)\n    subq r10, #1, r10\n    bne r10, loop\n    halt\n")
	f.Add("f: d_call dr1\n    ret (ra)\n    codeword 7\n")
	f.Fuzz(func(t *testing.T, src string) {
		if p, err := Assemble(src); err == nil && p == nil {
			t.Fatal("Assemble returned neither a program nor an error")
		}
	})
}
