package debug

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

func isaDecodeIsHalt(word uint32) bool {
	return isa.Decode(word).Op == isa.OpHalt
}

// --- single-stepping ------------------------------------------------------

// installSingleStep implements the naive backend: the application traps to
// the debugger at every source-level statement (and at breakpoint PCs),
// and the debugger re-evaluates everything (§2). Every stop that does not
// lead to a user interaction is a spurious transition.
func (d *Debugger) installSingleStep() error {
	stops := make(map[uint64]bool, len(d.m.Program.Statements)+len(d.breakpoints))
	for _, pc := range d.m.Program.Statements {
		stops[pc] = true
	}
	// The debugger regains control before each statement and when the
	// process exits, so effects of the final statement are still seen:
	// halting instructions are stops too.
	for i, w := range d.m.Program.Text {
		if isaDecodeIsHalt(w) {
			stops[d.m.Program.TextBase+uint64(i)*4] = true
		}
	}
	bps := make(map[uint64]*Breakpoint, len(d.breakpoints))
	for _, b := range d.breakpoints {
		stops[b.PC] = true
		bps[b.PC] = b
	}
	if len(stops) == 0 {
		return fmt.Errorf("debug: single-step backend needs statement metadata or breakpoints")
	}
	d.m.Core.Hooks.OnInst = func(pc uint64) uint64 {
		if !stops[pc] {
			return 0
		}
		return d.stopAndInspect(pc, bps[pc])
	}
	return nil
}

// stopAndInspect models one debugger stop: the debugger inspects
// watchpoint expressions, then the breakpoint at pc, if any, and either
// invokes the user (free) or returns to the application (spurious,
// costed). The watchpoints come first: the stores that changed them ran
// before the instruction the breakpoint stops.
func (d *Debugger) stopAndInspect(pc uint64, bp *Breakpoint) uint64 {
	user := d.stats.User
	anyChanged := false
	for _, w := range d.watchpoints {
		chg, v := d.changed(w)
		if !chg {
			continue
		}
		anyChanged = true
		d.refresh(w)
		if w.Cond == nil || w.Cond.Eval(v) {
			d.user(UserEvent{PC: pc, Watchpoint: w, Value: v})
		}
	}
	if bp != nil {
		if ok, _ := d.breakCondHolds(bp); ok {
			d.user(UserEvent{PC: pc, Breakpoint: bp})
		}
	}
	switch {
	case d.stats.User > user:
		return 0
	case anyChanged || bp != nil:
		d.stats.SpuriousPred++
	default:
		d.stats.SpuriousAddr++
	}
	return DefaultTransitionCost
}

func (d *Debugger) breakCondHolds(b *Breakpoint) (bool, uint64) {
	if b.Cond == nil {
		return true, 0
	}
	v := d.m.Mem.Read(b.Cond.Addr, 8)
	c := Condition{Op: b.Cond.Op, Value: b.Cond.Value}
	return c.Eval(v), v
}

// --- virtual memory -------------------------------------------------------

// installVirtualMemory write-protects every page holding watched data and
// classifies the resulting store faults (§2). It cannot watch indirect
// expressions: the debugger cannot statically determine the pages (§5.1).
func (d *Debugger) installVirtualMemory() error {
	for _, w := range d.watchpoints {
		if w.Kind == WatchIndirect {
			return fmt.Errorf("debug: virtual-memory backend cannot watch indirect expression %q", w.Name)
		}
	}
	d.protectAll(d.watchpoints)
	d.m.Core.Hooks.OnStore = func(ev *pipeline.StoreEvent) uint64 {
		if !d.m.Core.Prot.WriteFaults(ev.Addr, ev.Size) {
			return 0
		}
		return d.faultTransition(ev.PC, ev.Addr, ev.Size, d.watchpoints)
	}
	d.installBreakpointHook()
	return nil
}

// protectAll protects the pages of the given watchpoints.
func (d *Debugger) protectAll(ws []*Watchpoint) {
	for _, w := range ws {
		for _, r := range d.watchedRanges(w) {
			d.m.Core.Prot.ProtectRange(r[0], r[1]-r[0])
		}
	}
}

// faultTransition classifies one page-protection fault against a
// watchpoint set: if the store wrote actual watched data, it is a
// value/predicate/user classification; otherwise it is the spurious
// address transition page granularity inflicts (§5.1).
func (d *Debugger) faultTransition(pc, addr uint64, size int, ws []*Watchpoint) uint64 {
	for _, w := range ws {
		if d.storeHits(w, addr, size) {
			return d.classify(w, pc, true)
		}
	}
	d.stats.SpuriousAddr++
	return DefaultTransitionCost
}

// --- hardware watchpoint registers ----------------------------------------

// hwWatchRegs is the machine's hardware watchpoint register count; the
// paper's machine has four (§2, §5.3).
const hwWatchRegs = 4

type hwReg struct {
	quad uint64 // aligned quad address the register matches
	w    *Watchpoint
}

// installHardwareReg implements quad-granular hardware watchpoint
// registers (§2). Scalars only; watchpoints beyond the register count fall
// back to virtual memory (§5.3); indirect and range watchpoints are not
// supported, as in real debuggers.
func (d *Debugger) installHardwareReg() error {
	var regs []hwReg
	var overflow []*Watchpoint
	for _, w := range d.watchpoints {
		switch w.Kind {
		case WatchIndirect:
			return fmt.Errorf("debug: hardware backend cannot watch indirect expression %q", w.Name)
		case WatchRange:
			return fmt.Errorf("debug: hardware backend cannot watch non-scalar %q", w.Name)
		case WatchExpr:
			return fmt.Errorf("debug: hardware backend cannot watch complex expression %q", w.Name)
		}
		// A watchpoint takes a register per quad it touches, and only all
		// of them or none: one that does not fit spills whole to page
		// protection.
		var mine []hwReg
		for q := range quads(w.Addr, w.Addr+uint64(w.Size)) {
			mine = append(mine, hwReg{quad: q, w: w})
		}
		if len(regs)+len(mine) <= hwWatchRegs {
			regs = append(regs, mine...)
		} else {
			overflow = append(overflow, w)
		}
	}
	d.hwRegs = regs
	d.protectAll(overflow)
	d.m.Core.Hooks.OnStore = func(ev *pipeline.StoreEvent) uint64 {
		sLo, sHi := ev.Addr, ev.Addr+uint64(ev.Size)
		for _, r := range d.hwRegs {
			if rangesOverlap(sLo, sHi, r.quad, r.quad+8) {
				// The register fired. Spurious address transition when
				// only the unwatched part of the quad was written.
				return d.classify(r.w, ev.PC, d.storeHits(r.w, ev.Addr, ev.Size))
			}
		}
		if len(overflow) > 0 && d.m.Core.Prot.WriteFaults(ev.Addr, ev.Size) {
			return d.faultTransition(ev.PC, ev.Addr, ev.Size, overflow)
		}
		return 0
	}
	d.installBreakpointHook()
	return nil
}

// installBreakpointHook wires conventional trap-based breakpoints (static
// replacement with a trapping instruction, §2): every hit is either a user
// transition (free) or, for a failed conditional, a spurious predicate
// transition.
func (d *Debugger) installBreakpointHook() {
	if len(d.breakpoints) == 0 {
		return
	}
	bps := make(map[uint64]*Breakpoint, len(d.breakpoints))
	for _, b := range d.breakpoints {
		bps[b.PC] = b
	}
	d.m.Core.Hooks.OnInst = func(pc uint64) uint64 {
		b := bps[pc]
		if b == nil {
			return 0
		}
		if ok, _ := d.breakCondHolds(b); ok {
			d.user(UserEvent{PC: pc, Breakpoint: b})
			return 0
		}
		d.stats.SpuriousPred++
		return DefaultTransitionCost
	}
}
