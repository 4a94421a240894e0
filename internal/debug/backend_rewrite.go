package debug

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/rewrite"
)

// rewriteInstsPerStore is the number of instructions binary rewriting
// inserts after every store: the address match and the handler call.
const rewriteInstsPerStore = 9

// RewriteAddedInsts is the number of instructions binary rewriting adds
// to text: rewriteInstsPerStore after every store.
func RewriteAddedInsts(text []uint32) int {
	n := 0
	for _, word := range text {
		if isa.Decode(word).Op.IsStore() {
			n += rewriteInstsPerStore
		}
	}
	return n
}

// rwSaveQuads is the register save area at the start of the rewrite
// backend's data region; the previous-value slot follows it.
const (
	rwSaveBytes = 24
	rwSlotOff   = 24
	rwCondOff   = 32
)

// installBinaryRewrite implements the static-transformation baseline
// (§5.1, Figure 5): the check sequence is inlined at every store in the
// static image, scavenging registers r27 and r28, and a conventional
// handler function re-evaluates the expression on an address match. The
// inserted code bloats the text segment — the instruction-cache cost the
// experiment measures — and requires wholesale branch retargeting, which
// this backend performs via internal/rewrite.
func (d *Debugger) installBinaryRewrite() error {
	if len(d.watchpoints) != 1 || d.watchpoints[0].Kind != WatchScalar {
		return fmt.Errorf("debug: binary-rewrite backend supports exactly one scalar watchpoint")
	}
	if w := d.watchpoints[0]; w.Addr&7+uint64(w.Size) > 8 {
		return fmt.Errorf("debug: binary-rewrite backend matches one quad; %q straddles two", w.Name)
	}
	if len(d.breakpoints) > 0 {
		return fmt.Errorf("debug: binary-rewrite backend does not combine with breakpoints here; use trap patching")
	}
	w := d.watchpoints[0]
	p := d.m.Program
	if rewrite.UsesRegisters(p, isa.R27, isa.AT) {
		return fmt.Errorf("debug: cannot scavenge r27/r28: the application uses them (re-compilation would be required, §2)")
	}
	if p.TakesTextAddress {
		return fmt.Errorf("debug: binary-rewrite backend moves code, and the program takes a text label's address")
	}

	// Debugger data region: save area + previous-value slot. Appending
	// before the reload is safe — the reload rewrites only the original
	// segments.
	data := make([]byte, rwSaveBytes+16)
	binary.LittleEndian.PutUint64(data[rwSlotOff:], d.evalExpr(w))
	if w.Cond != nil {
		binary.LittleEndian.PutUint64(data[rwCondOff:], w.Cond.Value)
	}
	dataBase := d.m.AppendData(data)

	// Predict the handler's address: the transformed text plus the
	// AppendText guard gap.
	handlerBase := p.TextBase + uint64(len(p.Text)+RewriteAddedInsts(p.Text))*4 + 64

	waddrQuad := int64(w.Addr &^ 7)
	expand := func(inst isa.Inst, pc uint64) ([]isa.Inst, int) {
		if !inst.Op.IsStore() {
			return nil, 0
		}
		seq := []isa.Inst{
			inst, // original store
			{Op: isa.OpLda, RA: isa.AT, RB: inst.RB, Imm: inst.Imm},
			{Op: isa.OpBic, RA: isa.AT, Imm: 7, UseImm: true, RC: isa.AT},
		}
		seq = append(seq, li32Pair(isa.R27, waddrQuad)...)
		seq = append(seq,
			isa.Inst{Op: isa.OpCmpeq, RA: isa.AT, RB: isa.R27, RC: isa.R27},
			isa.Inst{Op: isa.OpBeq, RA: isa.R27, Imm: 3}, // skip the call
		)
		seq = append(seq, li32Pair(isa.R27, int64(handlerBase))...)
		seq = append(seq, isa.Inst{Op: isa.OpJsr, RA: isa.R27, RB: isa.R27})
		return seq, 0
	}
	newProg, _, err := rewrite.Transform(p, expand)
	if err != nil {
		return err
	}
	d.m.Load(newProg)

	// Generate and append the handler; it must land exactly where the
	// inlined calls point.
	code, err := d.buildRewriteHandler(handlerBase, dataBase, w)
	if err != nil {
		return err
	}
	got := d.m.AppendText(code)
	if got != handlerBase {
		return fmt.Errorf("debug: handler landed at %#x, expected %#x", got, handlerBase)
	}
	d.m.Core.Hooks.OnTrap = d.trapHook
	return nil
}

// li32Pair materializes a 32-bit constant into reg as an ldah/lda pair
// (the same expansion asm.Builder.Li32 uses).
func li32Pair(reg isa.Reg, v int64) []isa.Inst {
	lo := int64(int16(uint16(v & 0xFFFF)))
	hi := (v - lo) >> 16
	out := []isa.Inst{{Op: isa.OpLdah, RA: reg, RB: isa.Zero, Imm: hi}}
	if lo != 0 {
		out = append(out, isa.Inst{Op: isa.OpLda, RA: reg, RB: reg, Imm: lo})
	} else {
		out = append(out, isa.Inst{Op: isa.OpNop})
	}
	return out
}

// buildRewriteHandler generates the conventional (non-DISE) check
// function: entered via jsr with the link in r27 and the quad-aligned
// store address in r28; r28 is dead on entry (scavenged), so it becomes
// the data-region base.
func (d *Debugger) buildRewriteHandler(base, dataBase uint64, w *Watchpoint) ([]uint32, error) {
	b := asm.NewAt(base, dataBase)
	b.Li32(isa.AT, int64(dataBase))
	b.Mem(isa.OpStq, isa.R20, 0, isa.AT)
	b.Mem(isa.OpStq, isa.R21, 8, isa.AT)
	b.Mem(isa.OpStq, isa.R22, 16, isa.AT)
	b.Li32(isa.R20, int64(w.Addr))
	b.Mem(loadOpForSize(w.Size), isa.R21, 0, isa.R20) // current value
	b.Mem(isa.OpLdq, isa.R22, rwSlotOff, isa.AT)      // previous value
	b.Op3(isa.OpCmpeq, isa.R21, isa.R22, isa.R22)
	b.CondBr(isa.OpBne, isa.R22, "rwdone") // silent: no trap
	b.Mem(isa.OpStq, isa.R21, rwSlotOff, isa.AT)
	if w.Cond != nil {
		b.Mem(isa.OpLdq, isa.R22, rwCondOff, isa.AT)
		skipUnlessCond(b, w.Cond.Op, isa.R21, isa.R22, "rwdone")
	}
	d.traps[b.PC()] = w
	b.Trap()
	b.Label("rwdone")
	b.Mem(isa.OpLdq, isa.R20, 0, isa.AT)
	b.Mem(isa.OpLdq, isa.R21, 8, isa.AT)
	b.Mem(isa.OpLdq, isa.R22, 16, isa.AT)
	b.Jmp(isa.R27)
	p, err := b.Finish()
	if err != nil {
		return nil, err
	}
	return p.Text, nil
}
