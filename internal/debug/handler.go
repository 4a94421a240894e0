package debug

import (
	"fmt"
	"slices"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// buildHandler generates the debugger function that replacement sequences
// conditionally call (Figure 2e). The function:
//
//   - treats all registers as callee-saved: r20/r21 are stashed in DISE
//     scratch registers (legal: d_mtr/d_mfr are available to DISE-called
//     functions), r22–r25 go to the save area in the debugger data region
//     — it never touches the application stack;
//   - receives the store's effective address in dr1;
//   - finds every watchpoint whose quad matched (pruning Bloom false
//     positives), re-evaluates its expression, updates its current-value
//     slot, checks its predicate, and traps only when the user must be
//     invoked. Silent stores and failed predicates return without a trap —
//     the transitions every other implementation pays for (§4.2, §4.3).
func (d *Debugger) buildHandler(st *diseState) ([]uint32, error) {
	base := d.m.NextTextAppend()
	b := asm.NewAt(base, st.dataBase)

	const (
		rBase = isa.R20 // data-region base
		rAddr = isa.R21 // quad-aligned store address
		rA    = isa.R22
		rB    = isa.R23
		rC    = isa.R24
		rD    = isa.R25
	)

	single := len(d.watchpoints) == 1
	needAddr := !single || st.bloomSet != nil
	rangeUsed := false
	for _, w := range d.watchpoints {
		if w.Kind == WatchRange {
			rangeUsed = true
		}
	}

	// Prolog: the function treats all registers as callee-saved. r20/r21
	// are stashed in DISE scratch registers; the rest go to the save area
	// — only the registers this particular function uses are spilled, the
	// minimal-save discipline the paper's Figure 2e sketches.
	b.Emit(isa.Inst{Op: isa.OpDmtr, RA: rBase, RB: drT2, RBSp: isa.DiseSpace})
	if needAddr || rangeUsed {
		b.Emit(isa.Inst{Op: isa.OpDmtr, RA: rAddr, RB: drT3, RBSp: isa.DiseSpace})
	}
	b.Li32(rBase, int64(st.dataBase))
	b.Mem(isa.OpStq, rA, saveArea+0, rBase)
	b.Mem(isa.OpStq, rB, saveArea+8, rBase)
	b.Mem(isa.OpStq, rC, saveArea+16, rBase)
	if rangeUsed {
		b.Mem(isa.OpStq, rD, saveArea+24, rBase)
	}
	if needAddr {
		b.Emit(isa.Inst{Op: isa.OpDmfr, RB: drT1, RBSp: isa.DiseSpace, RC: rAddr})
		b.OpI(isa.OpBic, rAddr, 7, rAddr)
	}
	// last maps each watched quad to the last watchpoint watching it.
	last := map[uint64]int{}
	for i, w := range d.watchpoints {
		for _, q := range d.quadsOf(w) {
			last[q] = i
		}
	}
	for i, w := range d.watchpoints {
		blockEnd := fmt.Sprintf("wp%d_end", i)
		wq := d.quadsOf(w)
		// A block leaves for done only when no later watchpoint shares one
		// of its quads; otherwise it falls through to the next block, whose
		// value the same store may have changed too.
		exit := "done"
		if slices.ContainsFunc(wq, func(q uint64) bool { return last[q] > i }) {
			exit = blockEnd
		}
		// Address dispatch: with several candidates (or a Bloom probable
		// match) the function must check precisely which quad was hit.
		if needAddr {
			if w.Kind == WatchRange && len(wq) > 4 {
				// Bound dispatch code size: range membership via compares.
				b.Li32(rA, int64(w.Addr&^7))
				b.Op3(isa.OpCmpule, rA, rAddr, rA)
				b.Li32(rB, int64(w.Addr+w.Length))
				b.Op3(isa.OpCmpult, rAddr, rB, rB)
				b.Op3(isa.OpAnd, rA, rB, rA)
				b.CondBr(isa.OpBeq, rA, blockEnd)
			} else {
				hit := fmt.Sprintf("wp%d_hit", i)
				for _, q := range wq {
					b.Li32(rA, int64(q))
					b.Op3(isa.OpCmpeq, rAddr, rA, rA)
					b.CondBr(isa.OpBne, rA, hit)
				}
				b.Br(blockEnd)
				b.Label(hit)
			}
		}
		d.emitEval(b, st, w, i, exit)
		b.Label(blockEnd)
	}

	// Epilog (fallthrough = no watchpoint matched: Bloom false positive).
	b.Label("done")
	b.Mem(isa.OpLdq, rA, saveArea+0, rBase)
	b.Mem(isa.OpLdq, rB, saveArea+8, rBase)
	b.Mem(isa.OpLdq, rC, saveArea+16, rBase)
	if rangeUsed {
		b.Mem(isa.OpLdq, rD, saveArea+24, rBase)
	}
	b.Emit(isa.Inst{Op: isa.OpDmfr, RB: drT2, RBSp: isa.DiseSpace, RC: rBase})
	if needAddr || rangeUsed {
		b.Emit(isa.Inst{Op: isa.OpDmfr, RB: drT3, RBSp: isa.DiseSpace, RC: rAddr})
	}
	b.Emit(isa.Inst{Op: isa.OpDret})

	p, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("debug: handler generation: %w", err)
	}
	return p.Text, nil
}

// emitEval emits the expression re-evaluation for one watchpoint:
// compute the current value, compare with the slot, update, test the
// predicate, trap. A silent store, a failed predicate and the trap all
// leave through exit. The comparison constant is a full 64-bit value,
// kept in the debugger data region (§4.3: "auxiliary information in the
// debugger's static data area").
func (d *Debugger) emitEval(b *asm.Builder, st *diseState, w *Watchpoint, i int, exit string) {
	const (
		rBase = isa.R20
		rAddr = isa.R21
		rA    = isa.R22
		rB    = isa.R23
		rC    = isa.R24
		rD    = isa.R25
	)
	slot := int64(st.slotOf[w])
	switch w.Kind {
	case WatchScalar:
		b.Li32(rA, int64(w.Addr))
		b.Mem(loadOpForSize(w.Size), rB, 0, rA) // rB = current value

	case WatchIndirect:
		b.Li32(rA, int64(w.Addr))
		b.Mem(isa.OpLdq, rB, 0, rA) // rB = p
		// Keep dar tracking the current target quad so the replacement
		// sequence's cheap match stays accurate as p moves (§5.1: "watch
		// the base address p then update the *p watch condition whenever
		// the value of p changes").
		b.OpI(isa.OpBic, rB, 7, rC)
		b.Emit(isa.Inst{Op: isa.OpDmtr, RA: rC, RB: isa.DAR, RBSp: isa.DiseSpace})
		b.Mem(loadOpForSize(w.Size), rB, 0, rB) // rB = *p

	case WatchExpr:
		// Value = sum of the terms.
		b.Li(rB, 0)
		for _, a := range w.Terms {
			b.Li32(rA, int64(a))
			b.Mem(isa.OpLdq, rA, 0, rA)
			b.Op3(isa.OpAddq, rB, rA, rB)
		}

	case WatchRange:
		nQuads := int64((w.Length + 7) / 8)
		whole, rem := int64(w.Length/8), int64(w.Length%8)
		cmp := fmt.Sprintf("wp%d_cmp", i)
		chg := fmt.Sprintf("wp%d_chg", i)
		cpy := fmt.Sprintf("wp%d_cpy", i)
		// Compare the region against the copy, quad by quad.
		b.Li32(rA, int64(w.Addr))
		b.Li32(rB, int64(st.dataBase)+slot)
		if whole > 0 {
			b.Li32(rC, whole)
			b.Label(cmp)
			b.Mem(isa.OpLdq, rD, 0, rA)
			b.Mem(isa.OpLdq, rAddr, 0, rB) // store address is dead by now
			b.Op3(isa.OpCmpeq, rD, rAddr, rD)
			b.CondBr(isa.OpBeq, rD, chg)
			b.Lda(rA, 8, rA)
			b.Lda(rB, 8, rB)
			b.OpI(isa.OpSubq, rC, 1, rC)
			b.CondBr(isa.OpBne, rC, cmp)
		}
		if rem != 0 {
			// The last quad holds the region's final rem bytes in its low
			// bytes: shift the difference's other bytes out.
			b.Mem(isa.OpLdq, rD, 0, rA)
			b.Mem(isa.OpLdq, rAddr, 0, rB)
			b.Op3(isa.OpXor, rD, rAddr, rD)
			b.OpI(isa.OpSll, rD, 64-8*rem, rD)
			b.CondBr(isa.OpBne, rD, chg)
		}
		b.Br(exit) // unchanged
		// Changed: refresh the copy.
		b.Label(chg)
		b.Li32(rA, int64(w.Addr))
		b.Li32(rB, int64(st.dataBase)+slot)
		b.Li32(rC, nQuads)
		b.Label(cpy)
		b.Mem(isa.OpLdq, rD, 0, rA)
		b.Mem(isa.OpStq, rD, 0, rB)
		b.Lda(rA, 8, rA)
		b.Lda(rB, 8, rB)
		b.OpI(isa.OpSubq, rC, 1, rC)
		b.CondBr(isa.OpBne, rC, cpy)
		if w.Cond != nil {
			// The predicate applies to the region's first quad.
			b.Li32(rA, int64(w.Addr))
			b.Mem(isa.OpLdq, rB, 0, rA)
		}
	}
	if w.Kind != WatchRange {
		b.Mem(isa.OpLdq, rC, slot, rBase) // rC = previous value
		b.Op3(isa.OpCmpeq, rB, rC, rC)
		b.CondBr(isa.OpBne, rC, exit) // silent: no trap
		b.Mem(isa.OpStq, rB, slot, rBase)
	}
	// rB holds the changed value.
	if w.Cond != nil {
		b.Mem(isa.OpLdq, rC, int64(st.condSlot[w]), rBase)
		skipUnlessCond(b, w.Cond.Op, rB, rC, exit)
	}
	d.traps[b.PC()] = w
	b.Trap()
	b.Br(exit)
}

// skipUnlessCond emits the predicate test of generated code: compare rVal
// against the constant in rK, consuming rK, and branch to skip when
// rVal op constant fails.
func skipUnlessCond(b *asm.Builder, op CondOp, rVal, rK isa.Reg, skip string) {
	switch op {
	case CondEq:
		b.Op3(isa.OpCmpeq, rVal, rK, rK)
		b.CondBr(isa.OpBeq, rK, skip)
	case CondNe:
		b.Op3(isa.OpCmpeq, rVal, rK, rK)
		b.CondBr(isa.OpBne, rK, skip)
	case CondLt:
		b.Op3(isa.OpCmplt, rVal, rK, rK)
		b.CondBr(isa.OpBeq, rK, skip)
	case CondGt:
		b.Op3(isa.OpCmplt, rK, rVal, rK)
		b.CondBr(isa.OpBeq, rK, skip)
	}
}

// trapHook classifies traps under the DISE and binary-rewriting back
// ends. Every trap the generated code raises is, by construction, a user
// transition: address matching, silent-store pruning, and predicate
// evaluation all happened inside the application before trapping (§4).
// It returns 0 cycles — user transitions are masked by user interaction
// (§5).
func (d *Debugger) trapHook(ev pipeline.TrapEvent) uint64 {
	w, watch := d.traps[ev.PC]
	switch {
	case watch:
		d.user(UserEvent{PC: ev.PC, Watchpoint: w, Value: d.evalExpr(w)})
	case d.dise != nil && ev.PC >= d.dise.errBase && ev.PC < d.dise.errEnd:
		d.stats.ProtViolations++
		d.user(UserEvent{PC: ev.PC})
	case ev.InDise && ev.Code == breakTrap:
		d.user(UserEvent{PC: ev.PC, Breakpoint: d.bpAt(ev.PC)})
	case ev.InDise && len(d.watchpoints) > 0:
		// Inline-variant watch trap: refresh dpv so the next comparison
		// is against the value the user just saw.
		w := d.watchpoints[0]
		v := d.evalExpr(w)
		d.m.Engine.Regs[isa.DPV] = v
		d.user(UserEvent{PC: ev.PC, Watchpoint: w, Value: v})
	default:
		// The application's own trap (assertion, illegal instruction):
		// control goes to the user.
		d.user(UserEvent{PC: ev.PC})
	}
	return 0
}

func (d *Debugger) bpAt(pc uint64) *Breakpoint {
	for _, b := range d.breakpoints {
		if b.PC == pc {
			return b
		}
	}
	return nil
}

// buildErrHandler generates the protection error handler: report the wild
// store and resume (Figure 2f's "error" target).
func buildErrHandler() []uint32 {
	b := asm.New()
	b.Emit(isa.Inst{Op: isa.OpBrk})
	b.Emit(isa.Inst{Op: isa.OpDret})
	return b.MustFinish().Text
}
