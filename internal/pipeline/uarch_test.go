package pipeline_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// Microarchitectural effect tests: these verify that the timing model
// responds to the structures the paper's numbers depend on, not just that
// programs compute correct answers.

// TestROBLimitsMemoryParallelism: with a tiny reorder buffer, independent
// long-latency loads cannot overlap as much, so a smaller ROB must run
// strictly slower on a miss-heavy independent-load kernel.
func TestROBLimitsMemoryParallelism(t *testing.T) {
	// Loads stride 4KB+64 across 2MB: all miss, all independent.
	var sb strings.Builder
	sb.WriteString(".data\nbuf: .space 2097152\n.text\nmain:\n la r1, buf\n li r10, 200\nloop:\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, " ldq r%d, %d(r1)\n", 2+i, i*4160)
	}
	sb.WriteString(" lda r1, 16384(r1)\n subq r10, #1, r10\n bne r10, loop\n halt\n")
	p, err := asm.Assemble(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	run := func(rob int) uint64 {
		cfg := machine.DefaultConfig()
		cfg.Core.ROBSize = rob
		m := machine.New(cfg)
		m.Load(p)
		return m.MustRun(0).Cycles
	}
	big := run(128)
	small := run(8)
	if small < big*3/2 {
		t.Errorf("ROB=8 (%d cycles) should be much slower than ROB=128 (%d cycles)", small, big)
	}
}

// TestLoadPortContention: a load-saturated kernel must slow down when the
// cache has one port instead of two (the effect behind Figure 7's
// "load bandwidth is often highly contended").
func TestLoadPortContention(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(".data\nbuf: .space 4096\n.text\nmain:\n la r1, buf\n li r10, 500\nloop:\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, " ldq r%d, %d(r1)\n", 2+i, i*8)
	}
	sb.WriteString(" subq r10, #1, r10\n bne r10, loop\n halt\n")
	p, err := asm.Assemble(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	run := func(ports int) uint64 {
		cfg := machine.DefaultConfig()
		cfg.Core.LoadPorts = ports
		m := machine.New(cfg)
		m.Load(p)
		return m.MustRun(0).Cycles
	}
	two := run(2)
	one := run(1)
	if one < two*5/4 {
		t.Errorf("1 port (%d cycles) should be much slower than 2 ports (%d)", one, two)
	}
}

// TestICachePressure: a loop body larger than the I-cache must run
// noticeably slower per instruction than a compact one (the effect behind
// Figure 5's binary-rewriting result).
func TestICachePressure(t *testing.T) {
	build := func(groups int) *asm.Program {
		var sb strings.Builder
		sb.WriteString(".text\nmain:\n li r10, 60\nloop:\n")
		for i := 0; i < groups; i++ {
			sb.WriteString(" addq r1, #1, r1\n addq r2, #1, r2\n addq r3, #1, r3\n addq r4, #1, r4\n")
		}
		sb.WriteString(" subq r10, #1, r10\n bne r10, loop\n halt\n")
		p, err := asm.Assemble(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cpi := func(p *asm.Program) float64 {
		m := machine.NewDefault()
		m.Load(p)
		st := m.MustRun(0)
		return float64(st.Cycles) / float64(st.AppInsts)
	}
	small := cpi(build(500))  // 2K insts  = 8KB, fits 32KB I$
	large := cpi(build(4000)) // 16K insts = 64KB, exceeds 32KB I$
	if large < small*1.3 {
		t.Errorf("I$-thrashing CPI %.3f should exceed resident CPI %.3f by >=30%%", large, small)
	}
}

// TestBusOccupancyVisible: doubling memory-bound traffic streams should
// produce bus busy cycles in the hierarchy stats.
func TestBusOccupancyVisible(t *testing.T) {
	p, err := asm.Assemble(`
.data
buf: .space 1048576
.text
main:
    la r1, buf
    li r10, 2000
loop:
    ldq r2, 0(r1)
    ldq r3, 64(r1)
    lda r1, 128(r1)
    subq r10, #1, r10
    bne r10, loop
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	m.MustRun(0)
	if m.Hier.BusBusyCycles == 0 {
		t.Error("bus occupancy never recorded on a streaming kernel")
	}
	if m.Hier.L2.Stats().Misses == 0 {
		t.Error("1MB stream should miss in L2")
	}
}

// TestExpansionBandwidthCost: a DISE production that quadruples the
// instruction stream must slow a width-limited kernel down even though
// all inserted work is independent ALU noise.
func TestExpansionBandwidthCost(t *testing.T) {
	src := `
.data
v: .quad 0
.text
main:
    la r1, v
    li r10, 3000
loop:
    stq r10, 0(r1)
    addq r2, #1, r2
    addq r3, #1, r3
    subq r10, #1, r10
    bne r10, loop
    halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	base := machine.NewDefault()
	base.Load(p)
	baseCycles := base.MustRun(0).Cycles

	m := machine.NewDefault()
	m.Load(p)
	installNopExpansion(t, m, 4)
	exp := m.MustRun(0)
	if exp.Cycles <= baseCycles {
		t.Errorf("expansion added %d uops but no cycles (base %d, exp %d)",
			exp.DiseUops, baseCycles, exp.Cycles)
	}
}

// TestTrapStallExactness: the stall charged for a spurious transition
// must appear in the cycle count at full magnitude.
func TestTrapStallExactness(t *testing.T) {
	p, err := asm.Assemble(`
.data
v: .quad 0
.text
main:
    la  r1, v
    li  r2, 7
    stq r2, 0(r1)
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(stall uint64) uint64 {
		m := machine.NewDefault()
		m.Load(p)
		m.Core.Hooks.OnStore = func(ev pipeline.StoreEvent) uint64 { return stall }
		return m.MustRun(0).Cycles
	}
	c0 := run(0)
	c1 := run(250_000)
	if got := c1 - c0; got < 250_000 || got > 251_000 {
		t.Errorf("stall delta = %d, want ~250000", got)
	}
}

// TestPredecodeStatsSurface: code-cache behavior must be visible in the
// run statistics — a tight loop is almost all predecode hits over a
// couple of page decodes.
func TestPredecodeStatsSurface(t *testing.T) {
	p, err := asm.Assemble(`
main:
    li r10, 1000
loop:
    addq r1, #1, r1
    subq r10, #1, r10
    bne  r10, loop
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	st := m.MustRun(0)
	if st.PredecodePageDecodes == 0 {
		t.Error("no page decodes recorded")
	}
	if st.PredecodeHits < 3000 {
		t.Errorf("predecode hits = %d, want thousands for a tight loop", st.PredecodeHits)
	}
	if st.PredecodeHitRate() < 0.99 {
		t.Errorf("predecode hit rate = %.3f, want ~1", st.PredecodeHitRate())
	}
	if st.PredecodeEvictions != 0 {
		t.Errorf("evictions = %d, want 0 under the default cap", st.PredecodeEvictions)
	}
}

// TestMispredictPenaltyScalesWithFrontEnd: deeper front ends pay more per
// mispredicted branch.
func TestMispredictPenaltyScalesWithFrontEnd(t *testing.T) {
	// Xorshift-driven unpredictable branches.
	p, err := asm.Assemble(`
main:
    li   r9, 99
    li   r10, 3000
loop:
    sll  r9, #13, r2
    xor  r9, r2, r9
    srl  r9, #7, r2
    xor  r9, r2, r9
    and  r9, #1, r3
    beq  r3, skip
    addq r4, #1, r4
skip:
    subq r10, #1, r10
    bne  r10, loop
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(depth int) uint64 {
		cfg := machine.DefaultConfig()
		cfg.Core.FrontEndDepth = depth
		m := machine.New(cfg)
		m.Load(p)
		return m.MustRun(0).Cycles
	}
	shallow := run(3)
	deep := run(12)
	if deep <= shallow {
		t.Errorf("deep front end (%d cycles) should be slower than shallow (%d)", deep, shallow)
	}
}
