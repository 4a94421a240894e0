package debug

import (
	"fmt"

	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// Runtime control of DISE-backed debugging. The paper (§4.4, §6) makes a
// point of this: because the application's static image is never modified,
// watchpoints and breakpoints are enabled and disabled by activating and
// de-activating productions — no code patching, no cache shootdown, no
// restore/single-step/re-arm dance.

// Disable removes the DISE backend's watch productions from the pattern
// table, suspending all watchpoints at once. Breakpoint productions stay.
// It fails for other back ends, whose disable paths are inherently
// heavier (unprotecting pages, clearing registers, re-rewriting text).
func (d *Debugger) Disable() error {
	if err := d.requireDise("Disable"); err != nil {
		return err
	}
	for _, p := range d.dise.watch {
		d.m.Engine.Remove(p)
	}
	return nil
}

// Enable re-installs the watch productions removed by Disable.
func (d *Debugger) Enable() error {
	if err := d.requireDise("Enable"); err != nil {
		return err
	}
	for _, p := range d.dise.watch {
		if installed(d.m.Engine, p) {
			continue
		}
		if err := d.m.Engine.Install(p); err != nil {
			return err
		}
	}
	return nil
}

func (d *Debugger) requireDise(op string) error {
	if !d.installed || d.opts.Backend != BackendDise || d.dise == nil {
		return fmt.Errorf("debug: %s requires an installed DISE backend", op)
	}
	return nil
}

func installed(e *dise.Engine, p *dise.Production) bool {
	for _, q := range e.Productions() {
		if q == p {
			return true
		}
	}
	return false
}

// ScopeWatch restricts the watch productions to a function's dynamic
// extent: the debugger hooks the scope's entry and exit points with
// breakpoint productions that activate and de-activate the watch
// expansion (§4.2 "Pattern matching optimizations": "the debugger may
// choose to activate and deactivate the watchpoint expansion when the
// program enters or leaves the corresponding function's scope. The
// debugger can set an efficient hook ... by setting breakpoints on the
// function's first and last instructions").
//
// It must be called before Install; entry/exit hits are internal, not user
// transitions.
func (d *Debugger) ScopeWatch(entryPC, exitPC uint64) error {
	if d.installed {
		return fmt.Errorf("debug: ScopeWatch after Install")
	}
	if d.opts.Backend != BackendDise {
		return fmt.Errorf("debug: ScopeWatch requires the DISE backend")
	}
	d.scopeEntry, d.scopeExit = entryPC, exitPC
	d.scoped = true
	return nil
}

// installScopeHooks is called from installDise when ScopeWatch is active:
// watch productions start disabled, and codeword-free trap productions at
// the scope boundaries toggle them.
func (d *Debugger) installScopeHooks(st *diseState) error {
	entry := &dise.Production{
		Name:        "scope-entry",
		Pattern:     dise.MatchPC(d.scopeEntry),
		Replacement: []dise.TemplateInst{dise.TrapT(), dise.TInst()},
	}
	exit := &dise.Production{
		Name:        "scope-exit",
		Pattern:     dise.MatchPC(d.scopeExit),
		Replacement: []dise.TemplateInst{dise.TrapT(), dise.TInst()},
	}
	if err := d.m.Engine.Install(entry); err != nil {
		return err
	}
	if err := d.m.Engine.Install(exit); err != nil {
		return err
	}
	// Start with watching off until the scope is entered.
	for _, p := range st.watch {
		d.m.Engine.Remove(p)
	}
	prev := d.m.Core.Hooks.OnTrap
	d.m.Core.Hooks.OnTrap = func(ev pipeline.TrapEvent) uint64 {
		switch ev.PC {
		case d.scopeEntry:
			if ev.InDise {
				for _, p := range st.watch {
					if !installed(d.m.Engine, p) {
						// Table capacity was reserved at Install time.
						if err := d.m.Engine.Install(p); err != nil {
							panic(err)
						}
					}
				}
				return 0
			}
		case d.scopeExit:
			if ev.InDise {
				for _, p := range st.watch {
					d.m.Engine.Remove(p)
				}
				return 0
			}
		}
		return prev(ev)
	}
	return nil
}

// breakCodewordProduction implements §4.1's first breakpoint scheme: the
// breakpoint instruction in the text segment is replaced by a DISE
// codeword whose production expands to a trap followed by the original
// instruction. Unlike conventional trap patching, resuming needs no
// restore/single-step/re-arm sequence.
func (d *Debugger) breakCodewordProduction(b *Breakpoint, payload int64) (*dise.Production, error) {
	if b.Cond != nil {
		return nil, fmt.Errorf("debug: codeword breakpoints are unconditional; use PC patterns for conditionals")
	}
	orig := isa.Decode(uint32(d.m.Mem.Read(b.PC, 4)))
	cw, err := isa.Encode(isa.Inst{Op: isa.OpCodeword, Imm: payload})
	if err != nil {
		return nil, err
	}
	d.m.Mem.Write(b.PC, 4, uint64(cw))
	return &dise.Production{
		Name:        fmt.Sprintf("cwbreak@%#x", b.PC),
		Pattern:     dise.MatchCodeword(payload),
		Replacement: []dise.TemplateInst{dise.Lit(isa.Inst{Op: isa.OpTrap, Imm: breakTrap}), dise.Lit(orig)},
	}, nil
}
