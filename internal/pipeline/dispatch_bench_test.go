package pipeline_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// dispatchKernel is a non-halting steady-state loop mixing the dispatch
// shapes the uop refactor targets: dependent ALU chains, a load/store
// pair over one cache line (store-forwarding hits), and a data-dependent
// branch. Once the first pass has resolved the text page, every dynamic
// instruction dispatches from pre-resolved uops, so budget-bounded Run
// calls measure the hot loop and nothing else.
const dispatchKernel = `
.data
.align 8
buf: .space 64
.text
.entry main
main:
    la  r10, buf
loop:
    addq r1, #1, r1
    ldq r2, 0(r10)
    addq r2, r1, r2
    stq r2, 0(r10)
    and r1, #7, r3
    bne r3, loop
    xor r2, r1, r4
    br  loop
`

// storeKernel is the store-heavy steady-state loop: most instructions are
// stores of mixed sizes over one hot line, with one forwarding load, so
// the store-queue push (and its drain-edge bookkeeping) dominates the way
// a logging or memset-style workload would.
const storeKernel = `
.data
.align 8
buf: .space 64
.text
.entry main
main:
    la  r10, buf
loop:
    addq r1, #1, r1
    stq r1, 0(r10)
    stq r1, 8(r10)
    stl r1, 16(r10)
    stw r1, 24(r10)
    stb r1, 32(r10)
    ldq r2, 8(r10)
    stq r2, 40(r10)
    and r1, #7, r3
    bne r3, loop
    br  loop
`

// mulKernel saturates the single multiplier with independent mulq back
// to back. Four dispatch per cycle and one issues, so the multiplier is
// booked solid as far ahead as the ROB reaches, and every reservation
// probes across that run — up to (ROBSize-1)/IntMuls = 127 cycles on the
// default machine. No paper kernel or benchmark workload has this
// shape; it keeps the probe's worst case on view.
const mulKernel = `
.text
.entry main
main:
loop:
    mulq r1, r2, r3
    mulq r1, r2, r4
    mulq r1, r2, r5
    mulq r1, r2, r6
    mulq r1, r2, r7
    mulq r1, r2, r8
    mulq r1, r2, r9
    br  loop
`

// dispatchVariants are the steady-state loops the dispatch benchmark and
// the allocation test run, each with the debugger set-up (nil for none)
// installed after the kernel loads.
var dispatchVariants = []struct {
	name   string
	kernel string
	setup  func(testing.TB, *machine.Machine)
}{
	{"plain", dispatchKernel, nil},
	{"dise", dispatchKernel, installStoreWatch},
	{"stores", storeKernel, nil},
	{"mul", mulKernel, nil},
	{"store-hook", storeKernel, installStoreHook},
	{"trap-hook", dispatchKernel, installTrapHook},
}

// installStoreHook hands every store to an OnStore hook, as the
// single-step, virtual-memory and hardware back ends do; it charges no
// stall.
func installStoreHook(_ testing.TB, m *machine.Machine) {
	var stored uint64
	m.Core.Hooks.OnStore = func(ev pipeline.StoreEvent) uint64 {
		stored += uint64(ev.Size)
		return 0
	}
}

// installTrapHook replaces every store with itself and a trap, which an
// OnTrap hook takes as a free transition, as the DISE and rewrite back
// ends do.
func installTrapHook(tb testing.TB, m *machine.Machine) {
	tb.Helper()
	p := &dise.Production{
		Name:        "trap-stores",
		Pattern:     dise.MatchClass(isa.ClassStore),
		Replacement: []dise.TemplateInst{dise.TInst(), dise.TrapT()},
	}
	if err := m.Engine.Install(p); err != nil {
		tb.Fatal(err)
	}
	var traps uint64
	m.Core.Hooks.OnTrap = func(pipeline.TrapEvent) uint64 {
		traps++
		return 0
	}
}

// dispatchMachine loads a kernel, installs setup (if any), and runs it
// past the cold-start transient (page resolution, predictor warm-up,
// cache fills), returning the machine and the cumulative app-instruction
// target reached. Core.Run budgets are absolute cumulative targets, so
// steady-state chunks are driven by bumping the target.
func dispatchMachine(tb testing.TB, kernel string, setup func(testing.TB, *machine.Machine)) (*machine.Machine, uint64) {
	tb.Helper()
	p, err := asm.Assemble(kernel)
	if err != nil {
		tb.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	if setup != nil {
		setup(tb, m)
	}
	const warm = 100_000
	m.MustRun(warm)
	return m, warm
}

// BenchmarkDispatch measures the steady-state dispatch loop — fetch from
// the uop cache through exec and the fused time/advance — in simulated
// instructions per second, without the machine-construction and workload-
// generation costs the macro throughput benchmark includes. The dise
// variant keeps a store-class watchpoint production installed, so every
// fetch consults its slot's expansion memo and every fourth-ish
// instruction expands from it, mul saturates the multiplier, and the
// hook variants hand every store, or every trap a store's expansion
// raises, to a debugger hook. All must run the hot loop allocation-free
// (TestDispatchAllocFree asserts it; -benchmem shows it here).
func BenchmarkDispatch(b *testing.B) {
	const chunk = 10_000
	for _, v := range dispatchVariants {
		b.Run(v.name, func(b *testing.B) {
			m, target := dispatchMachine(b, v.kernel, v.setup)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target += chunk
				m.MustRun(target)
			}
			b.ReportMetric(float64(b.N)*chunk/b.Elapsed().Seconds()/1e6, "Minsts/s")
		})
	}
}

// TestDispatchAllocFree pins the hot-loop invariant the dispatch refactor
// must preserve: once warm, dispatching instructions — plain, through
// DISE expansion, store-dominated, multiplier-bound, or raising a store
// or trap event to a debugger hook — performs zero heap allocations.
func TestDispatchAllocFree(t *testing.T) {
	for _, v := range dispatchVariants {
		t.Run(v.name, func(t *testing.T) {
			m, target := dispatchMachine(t, v.kernel, v.setup)
			if allocs := testing.AllocsPerRun(50, func() {
				target += 2_000
				m.MustRun(target)
			}); allocs != 0 {
				t.Errorf("dispatch loop allocates: %v allocs per 2000-inst chunk", allocs)
			}
		})
	}
}
