package debug_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/debug"
	"repro/internal/machine"
)

// fuzzProg stores to a data quad and, through ptr, to whatever address
// the input puts there, so installed watches see both direct and pointer
// stores.
const fuzzProg = `
.data
.align 8
v:   .quad 0
ptr: .quad 0
.text
main:
    la  r1, v
    la  r3, ptr
    li  r2, 100
loop:
    stq r2, 0(r1)
    ldq r4, 0(r3)
    stb r2, 0(r4)
    subq r2, #1, r2
    bne r2, loop
    halt
`

// FuzzWatchInstall feeds watch specs as a debug-service client sends them
// — address, scalar size, kind, range length, the indirect pointer's
// value and the back end — through Watch, Install and a short run. A spec
// may be rejected with an error; nothing may panic, and Install and the
// run must stay bounded in time and memory.
//
// The corpus in testdata/fuzz/FuzzWatchInstall holds the specs that once
// took the service down: scalars in the last quad of memory (size 1 at
// 2^64-4 and size 8 at 2^64-8), an indirect watch whose pointer holds
// 2^64-4, and a 2^62-byte range.
func FuzzWatchInstall(f *testing.F) {
	p, err := asm.Assemble(fuzzProg)
	if err != nil {
		f.Fatal(err)
	}
	v := p.MustSymbol("v")
	f.Add(v, uint8(8), uint8(debug.WatchScalar), uint64(0), v, uint8(debug.BackendDise))
	// One machine, recycled per input: Reset makes it bit-identical to a
	// fresh one, and is far cheaper than building one.
	m := machine.NewDefault()
	f.Fuzz(func(t *testing.T, addr uint64, size, kind uint8, length, ptr uint64, backend uint8) {
		m.Reset()
		m.Load(p)
		m.WriteQuad(p.MustSymbol("ptr"), ptr)
		w := &debug.Watchpoint{Name: "w", Kind: debug.WatchKind(kind % 4), Addr: addr, Size: int(size), Length: length}
		switch w.Kind {
		case debug.WatchIndirect:
			m.WriteQuad(addr, ptr)
		case debug.WatchExpr:
			w.Terms = []uint64{addr}
		}
		d := debug.New(m, debug.DefaultOptions(debug.Backend(backend%5)))
		if d.Watch(w) != nil || d.Install() != nil {
			return
		}
		// The run may stop early on a wild jump into rewritten text; only
		// a panic or a hang is a failure.
		_, _ = m.Run(2_000)
	})
}

// breakProg's data image spans three whole pages (v on the first, w on
// the third), so the machine maps them from the program and a WriteQuad
// into them copies a page in.
const breakProg = `
.data
v:   .quad 0
     .space 8184
w:   .quad 0
     .space 4088
.text
main:
    la  r1, v
    la  r3, w
    li  r2, 100
loop:
    stq r2, 0(r1)
    ldq r4, 0(r3)
    addq r4, #1, r4
    stq r4, 0(r3)
    subq r2, #1, r2
    bne r2, loop
    halt
`

// FuzzBreakInstall feeds break specs as a debug-service client sends them
// — the PC and an optional condition's address, operator and value — and
// a back end through Break, Install and a short run on a recycled
// machine. The condition's quad is written first. A spec may be rejected
// with an error; nothing may panic, and the program's Text and Data must
// be unchanged after every input.
//
// The corpus in testdata/fuzz/FuzzBreakInstall holds PC 0, a misaligned
// PC, the last quad of memory, a PC inside the data image, and a
// condition at 2^64-8.
func FuzzBreakInstall(f *testing.F) {
	p, err := asm.Assemble(breakProg)
	if err != nil {
		f.Fatal(err)
	}
	text, data := slices.Clone(p.Text), bytes.Clone(p.Data)
	f.Add(p.MustSymbol("loop"), true, p.MustSymbol("w"), uint8(debug.CondGt), uint64(50), uint8(debug.BackendDise))
	m := machine.NewDefault()
	f.Fuzz(func(t *testing.T, pc uint64, cond bool, addr uint64, op uint8, value uint64, backend uint8) {
		m.Reset()
		m.Load(p)
		b := &debug.Breakpoint{PC: pc}
		if cond {
			// The wire accepts the four operators CondEq..CondGt.
			b.Cond = &debug.BreakCond{Addr: addr, Op: debug.CondOp(op % 4), Value: value}
			m.WriteQuad(addr, value)
		}
		d := debug.New(m, debug.DefaultOptions(debug.Backend(backend%5)))
		if d.Break(b) == nil && d.Install() == nil {
			// As in FuzzWatchInstall, only a panic or a hang fails.
			_, _ = m.Run(2_000)
		}
		if !slices.Equal(p.Text, text) || !bytes.Equal(p.Data, data) {
			t.Fatal("the input changed the program image")
		}
	})
}
