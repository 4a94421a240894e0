package pipeline_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

func run(t *testing.T, src string) (*machine.Machine, pipeline.Stats) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	st, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

func TestFunctionalSum(t *testing.T) {
	m, st := run(t, `
.data
.align 8
array: .quad 3, 5, 7, 11
total: .quad 0
.text
main:
    la   r1, array
    li   r2, 4
    li   r3, 0
loop:
    ldq  r4, 0(r1)
    addq r3, r4, r3
    lda  r1, 8(r1)
    subq r2, #1, r2
    bne  r2, loop
    la   r5, total
    stq  r3, 0(r5)
    halt
`)
	if got := m.ReadQuad(m.Program.MustSymbol("total")); got != 26 {
		t.Errorf("total = %d, want 26", got)
	}
	if !st.Halted {
		t.Error("machine did not halt")
	}
	if st.AppInsts == 0 || st.Cycles == 0 {
		t.Errorf("stats empty: %+v", st)
	}
}

func TestFunctionalCallReturn(t *testing.T) {
	m, _ := run(t, `
.data
out: .quad 0
.text
main:
    li   r16, 20
    bsr  ra, double
    la   r2, out
    stq  r0, 0(r2)
    halt
double:
    addq r16, r16, r0
    ret  (ra)
`)
	if got := m.ReadQuad(m.Program.MustSymbol("out")); got != 40 {
		t.Errorf("out = %d, want 40", got)
	}
}

func TestStoreLoadForwardingCorrectness(t *testing.T) {
	m, _ := run(t, `
.data
v: .quad 0
r: .quad 0
.text
main:
    la   r1, v
    li   r2, 1234
    stq  r2, 0(r1)
    ldq  r3, 0(r1)   ; must see the store
    la   r4, r
    stq  r3, 0(r4)
    halt
`)
	if got := m.ReadQuad(m.Program.MustSymbol("r")); got != 1234 {
		t.Errorf("r = %d, want 1234", got)
	}
}

func TestSubwordStores(t *testing.T) {
	m, _ := run(t, `
.data
.align 8
v: .quad 0
.text
main:
    la  r1, v
    li  r2, -1       ; 0xFFFF_FFFF_FFFF_FFFF
    stq r2, 0(r1)
    li  r3, 0
    stb r3, 0(r1)    ; clear byte 0
    stw r3, 2(r1)    ; clear bytes 2-3
    stl r3, 4(r1)    ; clear bytes 4-7
    halt
`)
	if got := m.ReadQuad(m.Program.MustSymbol("v")); got != 0xFF00 {
		t.Errorf("v = %#x, want 0xff00", got)
	}
}

// IPC sanity: a long independent ALU stream should sustain close to the
// machine width; a serial dependence chain should be near 1.
func TestIPCIndependentVsDependent(t *testing.T) {
	indep := `
main:
    li r10, 3000
loop:
    addq r1, #1, r1
    addq r2, #1, r2
    addq r3, #1, r3
    addq r4, #1, r4
    addq r5, #1, r5
    addq r6, #1, r6
    addq r7, #1, r7
    addq r8, #1, r8
    subq r10, #1, r10
    bne  r10, loop
    halt
`
	dep := `
main:
    li r10, 3000
loop:
    addq r1, #1, r1
    addq r1, #1, r1
    addq r1, #1, r1
    addq r1, #1, r1
    addq r1, #1, r1
    addq r1, #1, r1
    addq r1, #1, r1
    addq r1, #1, r1
    subq r10, #1, r10
    bne  r10, loop
    halt
`
	_, stI := run(t, indep)
	_, stD := run(t, dep)
	if stI.IPC() < 2.0 {
		t.Errorf("independent IPC = %.2f, want >= 2", stI.IPC())
	}
	if stD.IPC() > 1.6 {
		t.Errorf("dependent IPC = %.2f, want near 1", stD.IPC())
	}
	if stI.IPC() <= stD.IPC() {
		t.Errorf("independent (%.2f) should beat dependent (%.2f)", stI.IPC(), stD.IPC())
	}
}

func TestMispredictsHurt(t *testing.T) {
	// A data-dependent alternating branch mispredicts rarely once gshare
	// locks on; compare against a pseudo-random pattern from a xorshift,
	// which should mispredict often and run slower per iteration.
	randSrc := `
main:
    li   r9, 12345
    li   r10, 4000
loop:
    ; xorshift step
    sll  r9, #13, r2
    xor  r9, r2, r9
    srl  r9, #7, r2
    xor  r9, r2, r9
    sll  r9, #17, r2
    xor  r9, r2, r9
    and  r9, #1, r3
    beq  r3, skip
    addq r4, #1, r4
skip:
    subq r10, #1, r10
    bne  r10, loop
    halt
`
	_, st := run(t, randSrc)
	if st.BranchMispredicts < 500 {
		t.Errorf("mispredicts = %d, want many for random branch", st.BranchMispredicts)
	}
}

func TestHooksOnStoreAndSilentDetection(t *testing.T) {
	p, err := asm.Assemble(`
.data
v: .quad 7
.text
main:
    la  r1, v
    li  r2, 7
    stq r2, 0(r1)   ; silent (7 over 7)
    li  r2, 9
    stl r2, 4(r1)   ; not silent
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	var events []pipeline.StoreEvent
	m.Core.Hooks.OnStore = func(ev pipeline.StoreEvent) uint64 {
		events = append(events, ev)
		return 0
	}
	m.MustRun(0)
	if len(events) != 2 {
		t.Fatalf("store events = %d, want 2", len(events))
	}
	v := p.MustSymbol("v")
	// Both stores reach the hook, silent or not; each names its own PC.
	for i, want := range []struct {
		addr uint64
		size int
	}{{v, 8}, {v + 4, 4}} {
		ev := events[i]
		if ev.Addr != want.addr || ev.Size != want.size || ev.InDise {
			t.Errorf("event %d = %+v, want addr %#x size %d", i, ev, want.addr, want.size)
		}
		if w := isa.Decode(uint32(m.Mem.Read(ev.PC, 4))); !w.Op.IsStore() {
			t.Errorf("event %d: PC %#x holds %v, not a store", i, ev.PC, w)
		}
	}
	if events[0].PC == events[1].PC {
		t.Errorf("both events report PC %#x", events[0].PC)
	}
}

func TestTrapStallCostsCycles(t *testing.T) {
	src := `
main:
    li r10, 100
loop:
    addq r1, #1, r1
    subq r10, #1, r10
    bne  r10, loop
    halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	base := machine.NewDefault()
	base.Load(p)
	stBase := base.MustRun(0)

	stepped := machine.NewDefault()
	stepped.Load(p)
	stepped.Core.Hooks.OnInst = func(pc uint64) uint64 { return 1000 }
	stStep := stepped.MustRun(0)

	if stStep.Cycles < stBase.Cycles+300*1000 {
		t.Errorf("stall cycles missing: base=%d stepped=%d", stBase.Cycles, stStep.Cycles)
	}
	if stStep.AppInsts != stBase.AppInsts {
		t.Errorf("instruction counts differ: %d vs %d", stStep.AppInsts, stBase.AppInsts)
	}
}

func TestDiseExpansionInPipeline(t *testing.T) {
	// Count stores via DISE: every store is replaced by itself plus an
	// increment of dr0 (a DISE register).
	p, err := asm.Assemble(`
.data
buf: .quad 0, 0, 0, 0
.text
main:
    la  r1, buf
    li  r10, 4
loop:
    stq r10, 0(r1)
    lda r1, 8(r1)
    subq r10, #1, r10
    bne r10, loop
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	prod := &dise.Production{
		Name:    "count-stores",
		Pattern: dise.MatchClass(isa.ClassStore),
		Replacement: []dise.TemplateInst{
			dise.TInst(),
			dise.OpIT(isa.OpAddq, dise.DReg(isa.DR0), 1, dise.DReg(isa.DR0)),
		},
	}
	if err := m.Engine.Install(prod); err != nil {
		t.Fatal(err)
	}
	st := m.MustRun(0)
	if got := m.Engine.Regs[isa.DR0]; got != 4 {
		t.Errorf("dr0 = %d, want 4 stores counted", got)
	}
	if st.Expansions != 4 {
		t.Errorf("expansions = %d, want 4", st.Expansions)
	}
	if st.DiseUops != 8 {
		t.Errorf("dise uops = %d, want 8 (store + add per expansion)", st.DiseUops)
	}
	// The original stores still happened.
	buf := m.Program.MustSymbol("buf")
	if m.ReadQuad(buf) != 4 || m.ReadQuad(buf+24) != 1 {
		t.Error("stores lost under expansion")
	}
}

func TestDiseBranchSkipsAndFlushes(t *testing.T) {
	// Replacement: store; d_bne dr0, +1 (taken: dr0 != 0); trap. With dr0
	// preset non-zero the trap must be skipped, and each taken DISE branch
	// must cost a flush.
	p, err := asm.Assemble(`
.data
v: .quad 0
.text
main:
    la  r1, v
    li  r2, 5
    stq r2, 0(r1)
    stq r2, 0(r1)
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	m.Engine.Regs[isa.DR0] = 1
	prod := &dise.Production{
		Name:    "skip-trap",
		Pattern: dise.MatchClass(isa.ClassStore),
		Replacement: []dise.TemplateInst{
			dise.TInst(),
			dise.DBranchT(isa.OpDbne, dise.DReg(isa.DR0), 1),
			dise.TrapT(),
		},
	}
	if err := m.Engine.Install(prod); err != nil {
		t.Fatal(err)
	}
	trapped := false
	m.Core.Hooks.OnTrap = func(ev pipeline.TrapEvent) uint64 { trapped = true; return 0 }
	st := m.MustRun(0)
	if trapped {
		t.Error("trap should have been skipped by the DISE branch")
	}
	if st.DiseBranchFlushes != 2 {
		t.Errorf("dise branch flushes = %d, want 2", st.DiseBranchFlushes)
	}
}

func TestDiseBranchNotTakenFallsThrough(t *testing.T) {
	p, err := asm.Assemble(`
.data
v: .quad 0
.text
main:
    la  r1, v
    li  r2, 5
    stq r2, 0(r1)
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	// dr0 == 0, so d_bne falls through into the trap.
	prod := &dise.Production{
		Name:    "trap-after-store",
		Pattern: dise.MatchClass(isa.ClassStore),
		Replacement: []dise.TemplateInst{
			dise.TInst(),
			dise.DBranchT(isa.OpDbne, dise.DReg(isa.DR0), 1),
			dise.TrapT(),
		},
	}
	if err := m.Engine.Install(prod); err != nil {
		t.Fatal(err)
	}
	traps := 0
	m.Core.Hooks.OnTrap = func(ev pipeline.TrapEvent) uint64 { traps++; return 0 }
	st := m.MustRun(0)
	if traps != 1 {
		t.Errorf("traps = %d, want 1", traps)
	}
	if st.DiseBranchFlushes != 0 {
		t.Errorf("flushes = %d, want 0 for untaken DISE branch", st.DiseBranchFlushes)
	}
}

func TestCtrapNoFlush(t *testing.T) {
	// ctrap with a false condition costs nothing: no flush, no trap.
	p, err := asm.Assemble(`
.data
v: .quad 0
.text
main:
    la  r1, v
    li  r2, 5
    stq r2, 0(r1)
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	prod := &dise.Production{
		Name:    "ctrap-never",
		Pattern: dise.MatchClass(isa.ClassStore),
		Replacement: []dise.TemplateInst{
			dise.TInst(),
			dise.CtrapT(dise.DReg(isa.DR0)), // dr0 == 0: never traps
		},
	}
	if err := m.Engine.Install(prod); err != nil {
		t.Fatal(err)
	}
	traps := 0
	m.Core.Hooks.OnTrap = func(ev pipeline.TrapEvent) uint64 { traps++; return 0 }
	st := m.MustRun(0)
	if traps != 0 {
		t.Errorf("traps = %d, want 0", traps)
	}
	if st.DiseBranchFlushes != 0 || st.DiseCallFlushes != 0 {
		t.Error("ctrap must not flush")
	}
}

func TestDiseCallAndReturn(t *testing.T) {
	// d_call jumps to a conventional function that increments a DISE
	// register via d_mfr/d_mtr and returns with d_ret; expansion must be
	// disabled inside the function.
	p, err := asm.Assemble(`
.data
v: .quad 0, 0
.text
main:
    la  r1, v
    li  r2, 5
    stq r2, 0(r1)   ; triggers expansion -> d_call handler
    stq r2, 8(r1)   ; the store inside the handler must NOT expand
    halt
handler:
    d_mfr r20, dr1
    addq  r20, #1, r20
    d_mtr dr1, r20
    d_ret
`)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	m.Engine.Regs[isa.DHDLR] = p.MustSymbol("handler")
	prod := &dise.Production{
		Name:    "call-on-store",
		Pattern: dise.MatchClass(isa.ClassStore),
		Replacement: []dise.TemplateInst{
			dise.TInst(),
			dise.DCallT(isa.DHDLR),
		},
	}
	if err := m.Engine.Install(prod); err != nil {
		t.Fatal(err)
	}
	st := m.MustRun(0)
	if got := m.Engine.Regs[isa.DR1]; got != 2 {
		t.Errorf("dr1 = %d, want 2 (one call per app store)", got)
	}
	// Two calls, each with call+return flush = 4.
	if st.DiseCallFlushes != 4 {
		t.Errorf("call flushes = %d, want 4", st.DiseCallFlushes)
	}
	if st.FuncInsts == 0 {
		t.Error("function instructions not counted")
	}
	if st.Expansions != 2 {
		t.Errorf("expansions = %d, want 2 (no expansion inside handler)", st.Expansions)
	}
}

func TestDCcallConditional(t *testing.T) {
	// d_ccall only fires when the test register is non-zero.
	p, err := asm.Assemble(`
.data
v: .quad 0
.text
main:
    la  r1, v
    li  r2, 5
    stq r2, 0(r1)
    halt
handler:
    d_mfr r20, dr1
    addq  r20, #1, r20
    d_mtr dr1, r20
    d_ret
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, taken := range []bool{false, true} {
		m := machine.NewDefault()
		m.Load(p)
		m.Engine.Regs[isa.DHDLR] = p.MustSymbol("handler")
		if taken {
			m.Engine.Regs[isa.DR2] = 1
		}
		prod := &dise.Production{
			Name:    "ccall-on-store",
			Pattern: dise.MatchClass(isa.ClassStore),
			Replacement: []dise.TemplateInst{
				dise.TInst(),
				dise.DCCallT(dise.DReg(isa.DR2), isa.DHDLR),
			},
		}
		if err := m.Engine.Install(prod); err != nil {
			t.Fatal(err)
		}
		st := m.MustRun(0)
		wantCalls := uint64(0)
		if taken {
			wantCalls = 1
		}
		if got := m.Engine.Regs[isa.DR1]; got != wantCalls {
			t.Errorf("taken=%v: dr1 = %d, want %d", taken, got, wantCalls)
		}
		if !taken && st.DiseCallFlushes != 0 {
			t.Errorf("untaken ccall flushed: %d", st.DiseCallFlushes)
		}
	}
}

func TestMultithreadingRemovesCallFlushes(t *testing.T) {
	src := `
.data
v: .quad 0
.text
main:
    la  r1, v
    li  r10, 200
loop:
    stq r10, 0(r1)
    subq r10, #1, r10
    bne r10, loop
    halt
handler:
    d_mfr r20, dr1
    addq  r20, #1, r20
    d_mtr dr1, r20
    d_ret
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(mt bool) pipeline.Stats {
		cfg := machine.DefaultConfig()
		cfg.Core.MTDiseCalls = mt
		m := machine.New(cfg)
		m.Load(p)
		m.Engine.Regs[isa.DHDLR] = p.MustSymbol("handler")
		prod := &dise.Production{
			Name:    "call-every-store",
			Pattern: dise.MatchClass(isa.ClassStore),
			Replacement: []dise.TemplateInst{
				dise.TInst(),
				dise.DCallT(isa.DHDLR),
			},
		}
		if err := m.Engine.Install(prod); err != nil {
			t.Fatal(err)
		}
		return m.MustRun(0)
	}
	noMT := runWith(false)
	withMT := runWith(true)
	if noMT.DiseCallFlushes == 0 {
		t.Fatal("expected flushes without MT")
	}
	if withMT.DiseCallFlushes != 0 {
		t.Errorf("MT mode still flushed %d times", withMT.DiseCallFlushes)
	}
	if withMT.Cycles >= noMT.Cycles {
		t.Errorf("MT (%d cycles) should be faster than flushing (%d cycles)", withMT.Cycles, noMT.Cycles)
	}
}

func TestUopBudget(t *testing.T) {
	p, err := asm.Assemble("main: br main\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Core.MaxUops = 1000
	m := machine.New(cfg)
	m.Load(p)
	if _, err := m.Run(0); err == nil {
		t.Error("infinite loop should exhaust the uop budget")
	}
}

func TestMaxAppInstsBudget(t *testing.T) {
	p, err := asm.Assemble("main: addq r1, #1, r1\n br main\n")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	st := m.MustRun(5000)
	if st.Halted {
		t.Error("should have stopped on budget, not halt")
	}
	if st.AppInsts < 5000 || st.AppInsts > 5010 {
		t.Errorf("app insts = %d, want ~5000", st.AppInsts)
	}
}

func TestIllegalInstructionTraps(t *testing.T) {
	p, err := asm.Assemble("main: nop\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	// Clobber the nop with garbage.
	m.Mem.Write(p.TextBase, 4, 0xFFFFFFFF)
	var code int64
	m.Core.Hooks.OnTrap = func(ev pipeline.TrapEvent) uint64 {
		code = ev.Code
		return 0
	}
	m.MustRun(0)
	if code != -1 {
		t.Errorf("trap code = %d, want -1 (illegal instruction)", code)
	}
}
