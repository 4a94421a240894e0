package harness

import (
	"fmt"

	"repro/internal/debug"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Table1 reproduces the benchmark summary: dynamic instructions, baseline
// IPC, and store density per kernel, next to the paper's measurements,
// plus the memory-system behavior (D-cache demand miss rate and the
// simulator's own code-cache hit rate) behind those numbers.
func Table1(cfg Config) *Table { return run(cfg, table1)[0] }

var table1 = &experiment{
	id:    "table1",
	title: "Benchmark summary (paper Table 1)",
	columns: []string{"bench", "function", "insts", "IPC", "IPC(paper)",
		"store density", "density(paper)", "L1D miss", "L2 hit", "predecode hit", "uop reuse"},
	notes: []string{
		"kernels are synthetic stand-ins shaped to the paper's function statistics (see DESIGN.md)",
		"L1D miss is the demand miss rate (writeback fills tracked separately); L2 hit is the demand hit rate under full victim inclusion; predecode hit is the simulator's code-cache hit rate; uop reuse is the fraction of dispatches served from pre-resolved micro-ops",
	},
	plan: func(cfg Config) []row {
		var rows []row
		for _, spec := range cfg.specs() {
			rows = append(rows, row{kernel: spec.Name, labels: []string{spec.Function}})
		}
		return rows
	},
	tail: func(k *kernel) []string {
		st, mem, spec := k.base.stats, k.base.mem, k.w.Spec
		return []string{
			fmt.Sprintf("%d", st.AppInsts),
			fmt.Sprintf("%.2f", st.IPC()),
			fmt.Sprintf("%.2f", spec.PaperIPC),
			fmt.Sprintf("%.1f%%", st.StoreDensity()*100),
			fmt.Sprintf("%.1f%%", spec.PaperDensity*100),
			fmt.Sprintf("%.1f%%", mem.L1D.MissRate()*100),
			fmt.Sprintf("%.1f%%", (1-mem.L2.MissRate())*100),
			fmt.Sprintf("%.1f%%", st.PredecodeHitRate()*100),
			fmt.Sprintf("%.1f%%", st.UopReuseRate()*100),
		}
	},
}

// Table2 measures each watchpoint's write frequency per 100K stores and
// compares with the paper. The counts come from the baseline runs.
func Table2(cfg Config) *Table { return run(cfg, table2)[0] }

var table2 = &experiment{
	id:      "table2",
	title:   "Watchpoint write frequency per 100K stores (paper Table 2)",
	columns: []string{"bench", "HOT", "paper", "WARM1", "paper", "WARM2", "paper", "COLD", "paper", "RANGE", "paper"},
	notes:   []string{"INDIRECT equals HOT by construction (same storage through a pointer), as in the paper"},
	plan: func(cfg Config) []row {
		var rows []row
		for _, spec := range cfg.specs() {
			rows = append(rows, row{kernel: spec.Name})
		}
		return rows
	},
	tail: func(k *kernel) []string {
		spec := k.w.Spec
		paper := [len(table2Kinds)]float64{spec.HotF, spec.Warm1F, spec.Warm2F, spec.ColdF, spec.RangeF}
		var cells []string
		for i, n := range k.base.writes {
			cells = append(cells,
				fmt.Sprintf("%.1f", float64(n)/float64(k.base.stats.Stores)*100000),
				fmt.Sprintf("%.1f", paper[i]))
		}
		return cells
	},
}

// watch is the set-up that watches one of the kernel's §5 watchpoints.
func watch(kind string, cond *debug.Condition) func(*workload.Workload, *debug.Debugger) error {
	return func(w *workload.Workload, d *debug.Debugger) error {
		return d.Watch(WatchpointFor(w, kind, cond))
	}
}

// watchComparison is the Figure 3/4 sweep: four implementations across
// six watchpoint kinds per benchmark.
func watchComparison(id, title string, cond func() *debug.Condition) *experiment {
	return &experiment{
		id:      id,
		title:   title,
		columns: []string{"bench", "watchpoint", "single-step", "virtual-mem", "hardware", "DISE"},
		notes:   []string{"normalized execution time vs undebugged baseline; n/a = the mechanism cannot express the watchpoint"},
		plan:    func(cfg Config) []row { return watchRows(cfg, cond) },
	}
}

// watchRows plans watchComparison's rows; cond, if not nil, makes each
// watchpoint's predicate.
func watchRows(cfg Config, cond func() *debug.Condition) []row {
	backends := []debug.Backend{
		debug.BackendSingleStep, debug.BackendVirtualMemory,
		debug.BackendHardwareReg, debug.BackendDise,
	}
	var rows []row
	for _, spec := range cfg.specs() {
		for _, kind := range WatchKinds {
			r := row{kernel: spec.Name, labels: []string{kind}}
			for _, b := range backends {
				var c *debug.Condition
				if cond != nil {
					c = cond()
				}
				// n/a: unsupported, as in the paper.
				r.jobs = append(r.jobs, job{opts: debug.DefaultOptions(b), setup: watch(kind, c), failed: "n/a"})
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// Fig3 compares the four unconditional watchpoint implementations.
func Fig3(cfg Config) *Table { return run(cfg, fig3)[0] }

var fig3 = watchComparison("fig3",
	"Unconditional watchpoints: four implementations (paper Figure 3)", nil)

// Fig4 compares the four implementations on conditional watchpoints whose
// predicate never holds.
func Fig4(cfg Config) *Table { return run(cfg, fig4)[0] }

var fig4 = watchComparison("fig4",
	"Conditional watchpoints, predicate never true (paper Figure 4)", neverCond)

// Fig5 compares DISE with static binary rewriting on the COLD watchpoint.
func Fig5(cfg Config) *Table { return run(cfg, fig5)[0] }

var fig5 = &experiment{
	id:      "fig5",
	title:   "DISE vs binary rewriting, COLD watchpoint (paper Figure 5)",
	columns: []string{"bench", "DISE", "binary-rewriting", "text KB", "rewritten KB"},
	notes:   []string{"the transformation's startup cost is excluded, as in the paper; I-cache is 32KB"},
	plan: func(cfg Config) []row {
		var rows []row
		for _, spec := range cfg.specs() {
			rows = append(rows, row{kernel: spec.Name, jobs: []job{
				{opts: debug.DefaultOptions(debug.BackendDise), setup: watch("COLD", nil)},
				{opts: debug.DefaultOptions(debug.BackendBinaryRewrite), setup: watch("COLD", nil)},
			}})
		}
		return rows
	},
	tail: func(k *kernel) []string {
		text := k.w.Program.Text
		origKB := float64(len(text)) * 4 / 1024
		// Rewriting inflates the static image by ~9 instructions per
		// store; recompute for the report.
		nStores := 0
		for _, word := range text {
			if isa.Decode(word).Op.IsStore() {
				nStores++
			}
		}
		rwKB := origKB + float64(nStores*9)*4/1024
		return []string{fmt.Sprintf("%.1f", origKB), fmt.Sprintf("%.1f", rwKB)}
	},
}

// Fig6 sweeps the number of watchpoints for the hardware/virtual-memory
// hybrid against the three DISE multi-watchpoint strategies.
func Fig6(cfg Config) *Table { return run(cfg, fig6)[0] }

var fig6 = &experiment{
	id:      "fig6",
	title:   "Impact of the number of watchpoints (paper Figure 6)",
	columns: []string{"bench", "n", "hw/virtual-mem", "serial (DISE)", "byte-bloom (DISE)", "bit-bloom (DISE)"},
	notes:   []string{"hardware registers cover the first 4 watchpoints; the rest fall back to page protection (§5.3)"},
	plan: func(cfg Config) []row {
		var rows []row
		for _, name := range []string{"crafty", "gcc", "vortex"} {
			if !cfg.wants(name) {
				continue
			}
			for _, n := range []int{1, 2, 3, 4, 5, 8, 16} {
				setup := func(w *workload.Workload, d *debug.Debugger) error {
					for i := 0; i < n; i++ {
						if err := d.Watch(&debug.Watchpoint{
							Name: fmt.Sprintf("vars[%d]", i),
							Kind: debug.WatchScalar,
							Addr: w.WP.Vars + uint64(i)*8,
							Size: 8,
						}); err != nil {
							return err
						}
					}
					return nil
				}
				r := row{kernel: name, labels: []string{fmt.Sprintf("%d", n)}, jobs: []job{
					{opts: debug.DefaultOptions(debug.BackendHardwareReg), setup: setup},
				}}
				for _, strat := range []debug.MultiStrategy{debug.StrategySerial, debug.StrategyBloomByte, debug.StrategyBloomBit} {
					opts := debug.DefaultOptions(debug.BackendDise)
					opts.Multi = strat
					r.jobs = append(r.jobs, job{opts: opts, setup: setup, failed: "err"})
				}
				rows = append(rows, r)
			}
		}
		return rows
	},
}

// Fig7 evaluates the replacement-sequence variants with and without
// conditional trap/call ISA support.
func Fig7(cfg Config) *Table { return run(cfg, fig7)[0] }

var fig7 = &experiment{
	id:    "fig7",
	title: "Alternate DISE implementations (paper Figure 7)",
	columns: []string{"bench", "watchpoint",
		"match/eval+cc", "eval/-+ct", "match-val/-+ct",
		"match/eval", "eval/-", "match-val/-"},
	notes: []string{"+cc/+ct columns have conditional call/trap ISA support; the right three use DISE branches that flush"},
	plan: func(cfg Config) []row {
		var rows []row
		variants := []debug.DiseVariant{debug.VariantMatchAddrEval, debug.VariantEvalExpr, debug.VariantMatchAddrValue}
		for _, name := range []string{"bzip2", "mcf", "twolf"} {
			if !cfg.wants(name) {
				continue
			}
			for _, kind := range []string{"HOT", "WARM1", "WARM2", "COLD"} {
				r := row{kernel: name, labels: []string{kind}}
				for _, condSupport := range []bool{true, false} {
					for _, v := range variants {
						opts := debug.DefaultOptions(debug.BackendDise)
						opts.Variant = v
						opts.CondSupport = condSupport
						r.jobs = append(r.jobs, job{opts: opts, setup: watch(kind, nil), failed: "n/a"})
					}
				}
				rows = append(rows, r)
			}
		}
		return rows
	},
}

// Fig8 measures the multithreading optimization: DISE-called function
// bodies execute on a spare context, eliminating call/return flushes.
func Fig8(cfg Config) *Table { return run(cfg, fig8)[0] }

var fig8 = &experiment{
	id:      "fig8",
	title:   "DISE overhead with multithreaded function bodies (paper Figure 8)",
	columns: []string{"bench", "watchpoint", "without MT", "with MT"},
	plan: func(cfg Config) []row {
		var rows []row
		for _, spec := range cfg.specs() {
			for _, kind := range []string{"HOT", "WARM1", "WARM2", "COLD"} {
				mt := machine.DefaultConfig()
				mt.Core.MTDiseCalls = true
				rows = append(rows, row{kernel: spec.Name, labels: []string{kind}, jobs: []job{
					{opts: debug.DefaultOptions(debug.BackendDise), setup: watch(kind, nil)},
					{opts: debug.DefaultOptions(debug.BackendDise), mcfg: &mt, setup: watch(kind, nil)},
				}})
			}
		}
		return rows
	},
}

// Fig9 measures the cost of protecting the debugger's embedded data with
// the Figure 2f production, on the COLD watchpoint.
func Fig9(cfg Config) *Table { return run(cfg, fig9)[0] }

var fig9 = &experiment{
	id:      "fig9",
	title:   "Cost of protecting debugger structures (paper Figure 9)",
	columns: []string{"bench", "not protected", "protected"},
	plan: func(cfg Config) []row {
		var rows []row
		for _, spec := range cfg.specs() {
			prot := debug.DefaultOptions(debug.BackendDise)
			prot.Protect = true
			rows = append(rows, row{kernel: spec.Name, jobs: []job{
				{opts: debug.DefaultOptions(debug.BackendDise), setup: watch("COLD", nil)},
				{opts: prot, setup: watch("COLD", nil)},
			}})
		}
		return rows
	},
}
