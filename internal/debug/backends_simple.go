package debug

import (
	"fmt"
	"slices"

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
	if len(stops)+len(d.breakpoints) == 0 {
		return fmt.Errorf("debug: single-step backend needs statement metadata or breakpoints")
	}
	d.installStops(stops)
	return nil
}

// inspect models one debugger stop, the only place the hook back ends
// classify a transition (§2). After a store it re-evaluates every
// watchpoint the store wrote; at a statement or breakpoint stop, with no
// store, it re-evaluates every watchpoint. The watchpoints come before
// the breakpoint at pc, if any: the stores that changed them ran before
// the instruction the breakpoint stops. The stop is a user transition
// (free) when any of them invokes the user, and otherwise one spurious
// transition, costed: predicate when a value changed or a breakpoint
// stopped, value when the store wrote watched data, address when it
// wrote none or nothing was written.
func (d *Debugger) inspect(pc uint64, store *pipeline.StoreEvent, bp *Breakpoint) uint64 {
	user := d.stats.User
	wrote, changed := false, false
	for _, w := range d.watchpoints {
		if store != nil {
			if !d.storeHits(w, store.Addr, store.Size) {
				continue
			}
			wrote = true
		}
		chg, v := d.changed(w)
		if !chg {
			continue
		}
		changed = true
		d.refresh(w)
		if w.Cond == nil || w.Cond.Eval(v) {
			d.user(UserEvent{PC: pc, Watchpoint: w, Value: v})
		}
	}
	if bp != nil && d.breakCondHolds(bp) {
		d.user(UserEvent{PC: pc, Breakpoint: bp})
	}
	switch {
	case d.stats.User > user:
		return 0
	case changed || bp != nil:
		d.stats.SpuriousPred++
	case wrote:
		d.stats.SpuriousValue++
	default:
		d.stats.SpuriousAddr++
	}
	return DefaultTransitionCost
}

func (d *Debugger) breakCondHolds(b *Breakpoint) bool {
	if b.Cond == nil {
		return true
	}
	c := Condition{Op: b.Cond.Op, Value: b.Cond.Value}
	return c.Eval(d.m.Mem.Read(b.Cond.Addr, 8))
}

// installStops stops the application, and inspects, before every
// instruction whose PC is in stops or holds a breakpoint.
func (d *Debugger) installStops(stops map[uint64]bool) {
	bps := make(map[uint64]*Breakpoint, len(d.breakpoints))
	for _, b := range d.breakpoints {
		stops[b.PC] = true
		bps[b.PC] = b
	}
	if len(stops) == 0 {
		return
	}
	d.m.Core.Hooks.OnInst = func(pc uint64) uint64 {
		if !stops[pc] {
			return 0
		}
		return d.inspect(pc, nil, bps[pc])
	}
}

// --- virtual memory -------------------------------------------------------

// installVirtualMemory write-protects every page holding watched data; a
// store that faults stops the application (§2). It cannot watch indirect
// expressions: the debugger cannot statically determine the pages (§5.1).
func (d *Debugger) installVirtualMemory() error {
	for _, w := range d.watchpoints {
		if w.Kind == WatchIndirect {
			return fmt.Errorf("debug: virtual-memory backend cannot watch indirect expression %q", w.Name)
		}
	}
	d.protectAll(d.watchpoints)
	d.m.Core.Hooks.OnStore = func(ev pipeline.StoreEvent) uint64 {
		if !d.m.Core.Prot.WriteFaults(ev.Addr, ev.Size) {
			return 0
		}
		return d.inspect(ev.PC, &ev, nil)
	}
	d.installStops(map[uint64]bool{})
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

// --- hardware watchpoint registers ----------------------------------------

// hwWatchRegs is the machine's hardware watchpoint register count; the
// paper's machine has four (§2, §5.3).
const hwWatchRegs = 4

// installHardwareReg implements quad-granular hardware watchpoint
// registers (§2): a store to a register's quad stops the application.
// Scalars only; watchpoints beyond the register count fall back to
// virtual memory (§5.3); indirect and range watchpoints are not
// supported, as in real debuggers.
func (d *Debugger) installHardwareReg() error {
	var regs []uint64 // the aligned quad each register matches
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
		mine := slices.Collect(quads(w.Addr, w.Addr+uint64(w.Size)))
		if len(regs)+len(mine) <= hwWatchRegs {
			regs = append(regs, mine...)
		} else {
			overflow = append(overflow, w)
		}
	}
	d.protectAll(overflow)
	d.m.Core.Hooks.OnStore = func(ev pipeline.StoreEvent) uint64 {
		for _, q := range regs {
			if rangesOverlap(ev.Addr, ev.Addr+uint64(ev.Size), q, q+8) {
				return d.inspect(ev.PC, &ev, nil)
			}
		}
		if len(overflow) > 0 && d.m.Core.Prot.WriteFaults(ev.Addr, ev.Size) {
			return d.inspect(ev.PC, &ev, nil)
		}
		return 0
	}
	d.installStops(map[uint64]bool{})
	return nil
}
