package main

// metricDef names one reported metric; the lists below are what the
// benchmark reports and mirror BENCHMARK.json (a test keeps them in
// step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees, reported by every workload
// from the untraced run. An "op" and a "round" are each workload's own
// unit of work, and times other than set-up are in cals (see
// calibrate.go and README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_cal", "cal", "lower"},
	{"round_p50_cal", "cal", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// cpuLayers are the layers the traced run's CPU profile folds into; see
// layerOf for the function-to-layer rules.
var cpuLayers = []string{
	"pipeline.step", "pipeline.frontend", "pipeline.exec", "pipeline.timing",
	"cache", "mem", "bpred", "isa", "dise", "debug", "asm", "serve", "wire",
	"harness", "bench", "runtime.gc", "runtime.sched", "other",
}

// spanMetrics are mean durations of the bench's timed calls into each
// module, keyed by span name.
var spanMetrics = []struct{ span, metric, unit string }{
	{"workload.build", "workload.build_ms", "ms"},
	{"machine.new", "machine.new_ms", "ms"},
	{"machine.load", "machine.load_ms", "ms"},
	{"debug.install", "debug.install_ms", "ms"},
	{"machine.run", "machine.run_ms", "ms"},
	{"asm.assemble", "asm.assemble_us", "us"},
}

// suiteExperiments is harness.RunAll's paper order.
var suiteExperiments = []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}

// wireOps are the protocol ops the wire workloads send.
var wireOps = []string{"create", "watch", "continue", "step", "wait", "stats", "read", "close", "subscribe"}

// counterMetrics are the simulated counts and the scheduler, pool and
// runtime measures, with their units and directions.
var counterMetrics = []metricDef{
	{"serve.quantum.p50_ms", "ms", "lower"},
	{"serve.quantum.p99_ms", "ms", "lower"},
	{"serve.queue_wait.p50_ms", "ms", "lower"},
	{"serve.queue_wait.p99_ms", "ms", "lower"},
	{"serve.admit_lag.p50_ms", "ms", "lower"},
	{"serve.admit_lag.p99_ms", "ms", "lower"},
	{"serve.finish_spread_frac", "frac", "lower"},
	{"serve.quanta_share_min_over_max", "frac", "higher"},
	{"serve.pool_hit_ratio", "frac", "higher"},
	{"serve.turnaround.p99_ms", "ms", "lower"},

	{"core.cycles", "count", "lower"},
	{"core.app_insts", "count", "higher"},
	{"core.dise_uops", "count", "lower"},
	{"core.func_insts", "count", "lower"},
	{"core.ipc", "insts/cycle", "higher"},
	{"core.host_ns_per_cycle", "ns", "lower"},
	{"core.host_ns_per_uop", "ns", "lower"},
	{"core.minsts_per_s", "Minsts/s", "higher"},
	{"frontend.predecode_hit_rate", "frac", "higher"},
	{"frontend.uop_reuse_rate", "frac", "higher"},
	{"frontend.page_decodes", "count", "lower"},
	{"timing.branch_mispredicts", "count", "lower"},
	{"timing.dise_branch_flushes", "count", "lower"},
	{"timing.dise_call_flushes", "count", "lower"},
	{"timing.traps", "count", "lower"},
	{"timing.trap_stall_cycles", "count", "lower"},
	{"cache.l1i_miss_rate", "frac", "lower"},
	{"cache.l1d_miss_rate", "frac", "lower"},
	{"cache.l2_miss_rate", "frac", "lower"},
	{"cache.dtlb_miss_rate", "frac", "lower"},
	{"cache.bus_busy_cycles", "count", "lower"},
	{"bpred.cond_mispredict_rate", "frac", "lower"},
	{"dise.lookups", "count", "lower"},
	{"dise.scans_per_lookup", "count", "lower"},
	{"dise.expansions", "count", "lower"},
	{"dise.insts_inserted", "count", "lower"},
	{"dise.repl_misses", "count", "lower"},
	{"debug.user_transitions", "count", "lower"},
	{"debug.spurious_transitions", "count", "lower"},

	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace_overhead_frac", "frac", "lower"},
}

// perLayer is every metric the traced run reports, in BENCHMARK.json
// order. Metrics of a layer a workload does not exercise read 0.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{"cpu." + l + ".frac", "frac", "lower"},
			metricDef{"cpu." + l + ".us_per_op", "us", "lower"})
	}
	for _, s := range spanMetrics {
		out = append(out, metricDef{s.metric, s.unit, "lower"})
	}
	for _, id := range suiteExperiments {
		out = append(out, metricDef{"harness." + id + "_s", "s", "lower"})
	}
	for _, op := range wireOps {
		out = append(out, metricDef{"serve.op." + op + ".p50_ms", "ms", "lower"},
			metricDef{"serve.op." + op + ".p99_ms", "ms", "lower"})
	}
	for _, op := range wireOps {
		out = append(out, metricDef{"serve.srv_op." + op + ".mean_us", "us", "lower"})
	}
	return append(out, counterMetrics...)
}
