// Checkpoint/RestoreCheckpoint/Rebind carry a debugger across a machine
// Snapshot/Restore. The debugger's durable state outside the machine is
// small: transition statistics plus the Go-side previous-value shadows
// the classifying backends compare against. Everything else the backends
// installed — DISE productions, page protections, rewritten text, the
// core hook wiring — lives inside the machine and rides along with
// machine.State.
package debug

import (
	"maps"

	"repro/internal/machine"
)

// Checkpoint is the debugger-side companion to a machine.State: the
// state a debugger must reapply so that, after machine.Restore, watchpoint
// classification and statistics continue exactly as they would have.
//
// The shadow maps are copied, their region slices shared: snapshotPrev
// and refresh only ever store a fresh Mem.ReadBytes slice and never write
// one in place, so a debugger and its checkpoints may hold the same one.
type Checkpoint struct {
	stats      TransitionStats
	prevScalar map[*Watchpoint]uint64
	prevRegion map[*Watchpoint][]byte
}

// Checkpoint captures the debugger state. Take it at the same instant as
// the machine snapshot it accompanies.
func (d *Debugger) Checkpoint() *Checkpoint {
	return &Checkpoint{stats: d.stats, prevScalar: maps.Clone(d.prevScalar), prevRegion: maps.Clone(d.prevRegion)}
}

// RestoreCheckpoint replaces the debugger state with the checkpoint's.
// Call it after restoring the accompanying machine.State.
func (d *Debugger) RestoreCheckpoint(cp *Checkpoint) {
	d.stats = cp.stats
	d.prevScalar = maps.Clone(cp.prevScalar)
	d.prevRegion = maps.Clone(cp.prevRegion)
}

// Rebind points the debugger at a replacement machine that has been
// restored from a snapshot of the debugger's previous machine — the
// crash-recovery path, where the faulted machine is discarded and a fresh
// pooled one takes its place. The installed hook wiring is a plain struct
// on the core, so it transplants by copy; the hook closures themselves
// reach all machine state dynamically through d, so they follow the
// rebind automatically.
func (d *Debugger) Rebind(m *machine.Machine) {
	if d.m == m {
		return
	}
	m.Core.Hooks = d.m.Core.Hooks
	d.m = m
}
