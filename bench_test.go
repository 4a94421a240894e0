package dise

import (
	"fmt"
	"testing"

	idise "repro/internal/dise"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

// One testing.B benchmark per paper table/figure. Each regenerates its
// artifact at reduced scale and reports the headline metric(s) via
// b.ReportMetric, so `go test -bench=.` doubles as a miniature
// reproduction run. cmd/disebench produces the full-scale versions.

func benchCfg() harness.Config {
	return harness.Config{Budget: 60_000}
}

// mustRun regenerates one experiment's table through harness.Run.
func mustRun(b *testing.B, id string, cfg harness.Config) *harness.Table {
	b.Helper()
	tb, err := harness.Run(id, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tb
}

// reportCell publishes one table cell as a benchmark metric.
func reportCell(b *testing.B, tb *harness.Table, rowKeys []string, col, metric string) {
	b.Helper()
	ci := -1
	for i, c := range tb.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		b.Fatalf("no column %q", col)
	}
	for _, row := range tb.Rows {
		match := true
		for j, k := range rowKeys {
			if row[j] != k {
				match = false
			}
		}
		if match {
			var v float64
			fmt.Sscanf(row[ci], "%g", &v)
			b.ReportMetric(v, metric)
			return
		}
	}
	b.Fatalf("no row %v", rowKeys)
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := mustRun(b, "table1", benchCfg())
		if i == b.N-1 {
			reportCell(b, tb, []string{"mcf"}, "IPC", "mcf-ipc")
			reportCell(b, tb, []string{"bzip2"}, "IPC", "bzip2-ipc")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := mustRun(b, "table2", harness.Config{Budget: 60_000, Benchmarks: []string{"crafty"}})
		if i == b.N-1 {
			reportCell(b, tb, []string{"crafty"}, "HOT", "crafty-hot-per100K")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	cfg := harness.Config{Budget: 60_000, Benchmarks: []string{"twolf"}}
	for i := 0; i < b.N; i++ {
		tb := mustRun(b, "fig3", cfg)
		if i == b.N-1 {
			reportCell(b, tb, []string{"twolf", "COLD"}, "DISE", "dise-cold-overhead")
			reportCell(b, tb, []string{"twolf", "COLD"}, "single-step", "ss-cold-overhead")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	cfg := harness.Config{Budget: 60_000, Benchmarks: []string{"twolf"}}
	for i := 0; i < b.N; i++ {
		tb := mustRun(b, "fig4", cfg)
		if i == b.N-1 {
			reportCell(b, tb, []string{"twolf", "HOT"}, "DISE", "dise-cond-hot-overhead")
			reportCell(b, tb, []string{"twolf", "HOT"}, "hardware", "hw-cond-hot-overhead")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	cfg := harness.Config{Budget: 60_000, Benchmarks: []string{"gcc"}}
	for i := 0; i < b.N; i++ {
		tb := mustRun(b, "fig5", cfg)
		if i == b.N-1 {
			reportCell(b, tb, []string{"gcc"}, "DISE", "dise-overhead")
			reportCell(b, tb, []string{"gcc"}, "binary-rewriting", "rewrite-overhead")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	cfg := harness.Config{Budget: 60_000, Benchmarks: []string{"crafty"}}
	for i := 0; i < b.N; i++ {
		tb := mustRun(b, "fig6", cfg)
		if i == b.N-1 {
			reportCell(b, tb, []string{"crafty", "16"}, "byte-bloom (DISE)", "bloom16-overhead")
			reportCell(b, tb, []string{"crafty", "16"}, "hw/virtual-mem", "hwvm16-overhead")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	cfg := harness.Config{Budget: 60_000, Benchmarks: []string{"bzip2"}}
	for i := 0; i < b.N; i++ {
		tb := mustRun(b, "fig7", cfg)
		if i == b.N-1 {
			reportCell(b, tb, []string{"bzip2", "HOT"}, "match/eval+cc", "match-eval-cc")
			reportCell(b, tb, []string{"bzip2", "HOT"}, "eval/-+ct", "eval-inline-ct")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	cfg := harness.Config{Budget: 60_000, Benchmarks: []string{"vortex"}}
	for i := 0; i < b.N; i++ {
		tb := mustRun(b, "fig8", cfg)
		if i == b.N-1 {
			reportCell(b, tb, []string{"vortex", "HOT"}, "without MT", "hot-no-mt")
			reportCell(b, tb, []string{"vortex", "HOT"}, "with MT", "hot-mt")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	cfg := harness.Config{Budget: 60_000, Benchmarks: []string{"mcf"}}
	for i := 0; i < b.N; i++ {
		tb := mustRun(b, "fig9", cfg)
		if i == b.N-1 {
			reportCell(b, tb, []string{"mcf"}, "protected", "protected-overhead")
		}
	}
}

// BenchmarkAblationPatternGating measures the §4.2 pattern-specificity
// optimization: a second, more specific production passes stack-pointer
// stores through unexpanded.
func BenchmarkAblationPatternGating(b *testing.B) {
	prog, err := Assemble(`
.data
v: .quad 0
.text
main:
    la  r1, v
    li  r10, 2000
loop:
    stq r10, -8(sp)   ; stack traffic
    stq r10, -16(sp)
    stq r10, 0(r1)    ; heap store (watched variable's page)
    subq r10, #1, r10
    bne r10, loop
    halt
`)
	if err != nil {
		b.Fatal(err)
	}
	run := func(gate bool) uint64 {
		opts := DefaultOptions(BackendDise)
		opts.StackGating = gate
		s, err := NewSessionWith(prog, opts, DefaultMachineConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := s.WatchScalar("v", prog.MustSymbol("v"), 8); err != nil {
			b.Fatal(err)
		}
		st, err := s.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		return st.Cycles
	}
	for i := 0; i < b.N; i++ {
		plain := run(false)
		gated := run(true)
		if i == b.N-1 {
			b.ReportMetric(float64(plain)/float64(gated), "gating-speedup")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per wall-clock second) on the gcc kernel.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	w := workload.MustBuild(spec, 1<<20)
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		m := machine.NewDefault()
		m.Load(w.Program)
		st := m.MustRun(500_000)
		total += st.AppInsts
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}

// BenchmarkSimulatorThroughputDise is the productions-installed variant —
// the DISE-backend case the paper actually measures. It installs a
// watchpoint-shaped pattern-table load (a store-class check plus op- and
// register-refined siblings, the §4.2 shapes) and reports both throughput
// and the average productions examined per engine lookup; a lookup
// examines only the productions whose class key admits the fetched
// instruction, so the latter stays near the store fraction of the stream
// instead of the installed-production count.
func BenchmarkSimulatorThroughputDise(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	w := workload.MustBuild(spec, 1<<20)
	b.ResetTimer()
	total := uint64(0)
	scansPerLookup := 0.0
	for i := 0; i < b.N; i++ {
		m := machine.NewDefault()
		m.Load(w.Program)
		installWatchpointPatterns(b, m)
		st := m.MustRun(500_000)
		total += st.AppInsts
		es := m.Engine.Stats()
		if es.Lookups > 0 {
			scansPerLookup = float64(es.PatternsScanned) / float64(es.Lookups)
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minsts/s")
	b.ReportMetric(scansPerLookup, "scans/lookup")
}

// BenchmarkSimulatorThroughputBreakpoints runs the gcc kernel with 64
// DISE breakpoints installed at PCs the kernel never reaches — the
// steady state of a heavily instrumented session. A lookup examines a
// PC-constrained production only at its PC, so lookups away from every
// breakpoint scan zero productions (scans/lookup ~0), and the expansion
// memo walks the table once per static instruction, so throughput stays
// near the uninstrumented simulator's instead of degrading linearly with
// the breakpoint count.
func BenchmarkSimulatorThroughputBreakpoints(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	w := workload.MustBuild(spec, 1<<20)
	cfg := machine.DefaultConfig()
	cfg.Dise.PatternEntries = 128
	b.ResetTimer()
	total := uint64(0)
	scansPerLookup := 0.0
	for i := 0; i < b.N; i++ {
		m := machine.New(cfg)
		m.Load(w.Program)
		// Unreached text: past the program, before the debugger append area.
		base := w.Program.TextEnd() + 16*mem.PageSize
		for j := 0; j < 64; j++ {
			p := &idise.Production{
				Name:        "bp",
				Pattern:     idise.MatchPC(base + uint64(j)*4),
				Replacement: []idise.TemplateInst{idise.TrapT(), idise.TInst()},
			}
			if err := m.Engine.Install(p); err != nil {
				b.Fatal(err)
			}
		}
		st := m.MustRun(500_000)
		total += st.AppInsts
		es := m.Engine.Stats()
		if es.Lookups > 0 {
			scansPerLookup = float64(es.PatternsScanned) / float64(es.Lookups)
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minsts/s")
	b.ReportMetric(scansPerLookup, "scans/lookup")
}

// installWatchpointPatterns fills the pattern table the way the DISE
// debugger back end does for address watchpoints: class-, op-, and
// register-constrained store patterns with short check sequences.
func installWatchpointPatterns(b *testing.B, m *machine.Machine) {
	b.Helper()
	check := []idise.TemplateInst{
		idise.TInst(),
		idise.OpIT(isa.OpAddq, idise.DReg(isa.DR0), 1, idise.DReg(isa.DR0)),
	}
	prods := []*idise.Production{
		{Name: "watch-stores", Pattern: idise.MatchClass(isa.ClassStore), Replacement: check},
		{Name: "watch-stq", Pattern: idise.MatchOp(isa.OpStq), Replacement: check},
		{Name: "watch-stl", Pattern: idise.MatchOp(isa.OpStl), Replacement: check},
		{Name: "watch-stw", Pattern: idise.MatchOp(isa.OpStw), Replacement: check},
		{Name: "watch-stb", Pattern: idise.MatchOp(isa.OpStb), Replacement: check},
		{Name: "gate-sp", Pattern: idise.MatchClass(isa.ClassStore).WithRB(isa.SP),
			Replacement: []idise.TemplateInst{idise.TInst()}},
	}
	for _, p := range prods {
		if err := m.Engine.Install(p); err != nil {
			b.Fatal(err)
		}
	}
}
