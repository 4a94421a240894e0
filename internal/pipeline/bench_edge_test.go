package pipeline_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
)

// timeEdgeProg exercises every constraint Core.time applies in one loop:
// ALU chains (register readiness), a multiply (the limit-1 unit
// booking), mixed-size stores and loads over one line (store-queue
// drain edge, forwarding), and a taken branch (fetch redirect). The
// loop never exits; the benchmark bounds it by instruction count.
const timeEdgeProg = `
.data
.align 8
arr: .space 256
.text
.entry main
main:
    la   r10, arr
loop:
    addq r1, #1, r1
    mulq r1, r2, r3
    stq  r1, 0(r10)
    ldq  r4, 0(r10)
    stl  r2, 64(r10)
    ldw  r5, 64(r10)
    addq r4, r5, r2
    xor  r2, r1, r6
    bne  r1, loop
    halt
`

// BenchmarkTimeEdge measures the Core.time hot loop on a timing-stress
// kernel, for the default core and the LinearTiming reference
// (informational in scripts/bench_smoke.sh — the spread between the two
// is what the fetch/dispatch/commit cursors and the store-queue filters
// save on a plain stream; the differential tests prove the cycles are
// bit-identical).
func BenchmarkTimeEdge(b *testing.B) {
	p, err := asm.Assemble(timeEdgeProg)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		linear bool
	}{{"event", false}, {"linear", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := machine.DefaultConfig()
			cfg.Core.LinearTiming = mode.linear
			m := machine.New(cfg)
			m.Load(p)
			b.ResetTimer()
			st := m.MustRun(uint64(b.N))
			b.ReportMetric(float64(st.AppInsts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
		})
	}
}
