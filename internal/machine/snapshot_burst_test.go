package machine

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// TestSnapshotMidBurstRoundTrip snapshots a machine stopped in the middle
// of a DISE replacement burst — the in-flight expansion, the fetch,
// dispatch, and commit cursors, and the port tables all mid-sequence,
// with most of the burst still to run — and pins the three halves of the
// snapshot contract there: taking the snapshot leaves the donor's
// continued run bit-identical to an uninterrupted one, the restored
// machine re-encodes to the same bytes, and the restored machine's
// continued run matches too.
//
// The replacement embeds a store at its second slot (writing through DISE
// registers to an address far from the program image) purely so an
// OnStore hook can observe DisePC == 2 and request the stop at exactly
// that depth; with a six-uop replacement the stop lands with four uops of
// the burst still to dispatch.
func TestSnapshotMidBurstRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb57))
	src := genTimingProgram(rng, 800, 4)
	cfg := DefaultConfig()

	burstProd := func() *dise.Production {
		return &dise.Production{
			Name:    "burst-probe",
			Pattern: dise.MatchClass(isa.ClassStore),
			Replacement: []dise.TemplateInst{
				dise.TInst(),
				{Inst: isa.Inst{Op: isa.OpStq, RA: isa.DR0, RASp: isa.DiseSpace, RB: isa.DR1, RBSp: isa.DiseSpace}},
				dise.OpIT(isa.OpAddq, dise.DReg(isa.DR0), 1, dise.DReg(isa.DR0)),
				dise.OpIT(isa.OpAddq, dise.DReg(isa.DR0), 1, dise.DReg(isa.DR0)),
				dise.OpIT(isa.OpAddq, dise.DReg(isa.DR0), 1, dise.DReg(isa.DR0)),
				dise.OpIT(isa.OpAddq, dise.DReg(isa.DR0), 1, dise.DReg(isa.DR0)),
			},
		}
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	build := func(stopAtNth int) *Machine {
		m := New(cfg)
		m.Load(prog)
		m.Engine.Regs[isa.DR1%isa.NumDiseRegs] = 1 << 20 // scratch, clear of the image
		if err := m.Engine.Install(burstProd()); err != nil {
			t.Fatal(err)
		}
		n := 0
		m.Core.Hooks.OnStore = func(ev pipeline.StoreEvent) uint64 {
			if ev.InDise && ev.DisePC == 2 {
				if n++; n == stopAtNth {
					m.Core.RequestStop()
				}
			}
			return 0
		}
		return m
	}

	donor := build(40)
	donor.MustRun(0) // returns at the stop, mid-burst
	snap := donor.Snapshot()
	if snap.Core.ExpansionProd() == nil {
		t.Fatal("stop did not land inside a replacement burst")
	}
	enc := snap.Encode()
	donor.MustRun(0)
	donorSurf := surfaceOf(donor)

	ref := build(-1) // same hooks, never stops
	ref.MustRun(0)
	refSurf := surfaceOf(ref)
	if donorSurf != refSurf {
		t.Fatalf("donor diverged after a mid-burst snapshot:\n  donor %+v\n    ref %+v", donorSurf, refSurf)
	}
	if refSurf.Pipe.Expansions < 40 || !refSurf.Pipe.Halted {
		t.Fatalf("reference run too short or did not halt: %+v", refSurf.Pipe)
	}

	fresh := New(cfg)
	fresh.Restore(snap)
	if enc2 := fresh.Snapshot().Encode(); !bytes.Equal(enc, enc2) {
		t.Fatal("restored machine re-encodes to different bytes")
	}
	fresh.MustRun(0)
	if freshSurf := surfaceOf(fresh); freshSurf != refSurf {
		t.Fatalf("restored machine diverged:\n  fresh %+v\n    ref %+v", freshSurf, refSurf)
	}
}
