// Command bench is the repository's benchmark: it runs one workload in
// one process, checks the simulated outputs, and prints the end-to-end
// metrics (or, for the traced run, the per-layer metrics) with a JSON
// result as the last line of standard output. See README.md.
//
//	go run . -workload sim-plain -seed 1 -seconds 15 [-trace 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/pipeline"
)

// opBand is the half-width, in quantile, of the band op percentiles
// average over (see samples.band).
const opBand = 0.05

// A run sets its workload up from scratch at least setupReps times and
// for at least setupMin; setup_s is the median, so a few slow starts do
// not move it. The minimum time matters for the short set-ups (under a
// millisecond for wire-interactive): over 2 s rather than 0.1 s, a host
// hiccup covers too few of them to move the median, and across 16 runs
// the medians' spread fell from 11% to 4%.
const (
	setupReps = 31
	setupMin  = 2 * time.Second
)

type config struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	traceDir    string
	quick       bool // tiny sizes and two set-ups, for tests; golden files are not checked
	writeGolden bool
}

// runner runs one benchmark workload. measure runs rounds until the
// deadline (at least one) and records them; check verifies outputs after
// the timed phase; layerMetrics adds the workload's own per-layer values.
type runner interface {
	setUp(tr *tracer) error
	measure(deadline time.Time, rec *recorder) error
	check(rec *recorder)
	layerMetrics(rec *recorder, out map[string]float64)
	tearDown()
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]func(*config) runner{
	"sim-plain":        func(c *config) runner { return newSim(c, false) },
	"sim-dise":         func(c *config) runner { return newSim(c, true) },
	"wire-interactive": func(c *config) runner { return newInteractive(c) },
	"wire-batch":       func(c *config) runner { return newBatch(c) },
	"paper-suite":      func(c *config) runner { return newSuite(c) },
}

func (c *config) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(c.seed, stream)) }

// recorder collects one phase's measurements. Only the goroutine that
// drives the phase touches it.
type recorder struct {
	tr *tracer // nil when the phase is not traced

	ops, rounds       samples            // ms
	opsCal, roundsCal samples            // the same, in cals
	wire              map[string]samples // client-side request latency by op
	insts             uint64             // simulated application instructions
	simNs             int64              // host time inside machine runs
	cycles, uops      uint64
	attempted, failed int
	errs              []string
	cal               calibrator
	roundCal          int // the first loop timing of the current round
}

func newRecorder(tr *tracer) *recorder { return &recorder{tr: tr, wire: map[string]samples{}} }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// op records one completed operation.
func (r *recorder) op(d time.Duration) {
	r.ops = append(r.ops, ms(d))
	r.opsCal = append(r.opsCal, ms(d)/r.cal.current())
	r.attempted++
}

// round records one completed round. Rounds run back to back, so the
// loop timings since the last one (and the one just before it) span this
// round: a round is divided by their median, or by current's for a round
// shorter than that.
func (r *recorder) round(d time.Duration) {
	r.rounds = append(r.rounds, ms(d))
	r.roundsCal = append(r.roundsCal, ms(d)/r.cal.since(min(r.roundCal-1, len(r.cal.runs)-5)))
	r.roundCal = len(r.cal.runs)
}

func (r *recorder) wireOp(op string, d time.Duration) { r.wire[op] = append(r.wire[op], ms(d)) }

// sim records one machine run's host time and simulated size.
func (r *recorder) sim(d time.Duration, st pipeline.Stats) {
	r.simNs += int64(d)
	r.cycles += st.Cycles
	r.uops += st.AppInsts + st.DiseUops + st.FuncInsts
}

// fail records a failed operation or check.
func (r *recorder) fail(err error) {
	r.attempted++
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// check records a verification; a non-nil err is a failure.
func (r *recorder) check(err error) {
	if err != nil {
		r.fail(err)
		return
	}
	r.attempted++
}

// absorb adds another phase's counts and failures to r.
func (r *recorder) absorb(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := &config{}
	var seed int64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: sim-plain, sim-dise, wire-interactive, wire-batch, paper-suite")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "where the traced run writes spans.json, cpu.pprof and serve snapshots (default .bench_build/trace/<workload>-<seed>)")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny sizes, no golden check (tests)")
	flag.BoolVar(&cfg.writeGolden, "write-golden", false, "regenerate the golden files instead of checking them")
	foldPath := flag.String("fold", "", "print the layer fold of a CPU profile and exit")
	summarize := flag.String("summarize", "", "summarize a record's base and head runs (see record.sh) and exit")
	flag.Parse()
	if *foldPath != "" {
		f, err := foldProfile(*foldPath)
		if err != nil {
			fatal(err)
		}
		fmt.Print(f.report(5))
		return
	}
	if *summarize != "" {
		if err := summarizeRecord(*summarize, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	cfg.seed, cfg.trace = uint64(seed), trace == 1
	if cfg.traceDir == "" {
		cfg.traceDir = filepath.Join(".bench_build", "trace", cfg.workload+"-"+strconv.FormatInt(seed, 10))
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run sets the workload up, measures it, verifies it, and returns the
// result; human-readable lines go to out.
func run(cfg *config, out *os.File) (*result, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	w := mk(cfg)
	tr := &tracer{t0: time.Now(), on: cfg.trace}
	// Each set-up starts from a collected heap, so the collections it
	// triggers do not depend on the one before, and is scaled by the
	// calibration loop timed right after it.
	var setups []float64
	var setupCal calibrator
	reps, minTime := setupReps, setupMin
	if cfg.quick {
		reps, minTime = 2, 0
	}
	defer w.tearDown()
	start := time.Now()
	for i := 0; i < reps || time.Since(start) < minTime; i++ {
		if i > 0 {
			w.tearDown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setUp(tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds()*calRefMs/ms(setupCal.time()))
	}
	setupCal.release()
	tr.on = false

	total := newRecorder(nil)
	var cpu time.Duration // process CPU time of the last phase
	// phase measures for secs (0: one round) into rec.
	phase := func(secs float64, rec *recorder) (time.Duration, error) {
		rec.cal.threads = calThreads(w)
		rec.cal.tick()
		c0, t0 := cpuTime(), time.Now()
		err := w.measure(t0.Add(time.Duration(secs*float64(time.Second))), rec)
		rec.cal.release()
		total.absorb(rec)
		cpu = cpuTime() - c0
		return time.Since(t0), err
	}
	// One discarded round lets caches fill and lazy set-up finish.
	if _, err := phase(0, newRecorder(nil)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// The live heap is taken here, at the same point of every run: after
	// the timed phase it would depend on how far a slow or fast host got
	// (simulated memory grows with the pages a session has touched).
	heap := liveHeapMB()

	res := &result{Metrics: map[string]metricValue{}}
	// put reports a metric; n is how many samples it summarizes.
	put := func(name, unit string, v float64, n int) {
		res.Metrics[name] = metricValue{v, unit}
		fmt.Fprintf(out, "%-34s %14.6g %-8s n=%d\n", name, v, unit, n)
	}
	if !cfg.trace {
		rec := newRecorder(nil)
		wall, err := phase(cfg.seconds, rec)
		if err != nil {
			return nil, err
		}
		// The printed p90 needs ten samples beyond it: a run of fewer than
		// 100 ops measured too little.
		if _, err := rec.opsCal.tail(0.9); !cfg.quick {
			total.check(err)
		}
		fmt.Fprintf(out, "workload %s seed %d: %d ops, %d rounds in %.2fs (%.2fs CPU)", cfg.workload, cfg.seed,
			len(rec.ops), len(rec.rounds), wall.Seconds(), cpu.Seconds())
		if rec.insts > 0 {
			fmt.Fprintf(out, ", %.2f Minsts/s simulated", float64(rec.insts)/wall.Seconds()/1e6)
		}
		fmt.Fprintf(out, "\nin ms: op p50 %.4g, op p90 %.4g, round p50 %.4g; 1 cal = %.4g ms (median of %d); op p90 %.4g cal\n",
			rec.ops.quantile(0.5), rec.ops.quantile(0.9), rec.rounds.quantile(0.5), rec.cal.ms(), len(rec.cal.runs),
			rec.opsCal.band(0.9, opBand))
		put("setup_s", "s", median(setups), len(setups))
		put("op_p50_cal", "cal", rec.opsCal.band(0.5, opBand), len(rec.ops))
		put("round_p50_cal", "cal", rec.roundsCal.quantile(0.5), len(rec.rounds))
		put("live_heap_mb", "MB", heap, 1)
		total.absorb(verify(w, nil))
	} else {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
		// The first half runs untraced so the traced half's slowdown —
		// the tracing overhead — is measured in the same process.
		plain := newRecorder(nil)
		_, err := phase(cfg.seconds/2, plain)
		if err != nil {
			return nil, err
		}
		stop, err := startProfile(cfg.traceDir)
		if err != nil {
			return nil, err
		}
		var m0, m1 runtimeStats
		m0.read()
		tr.on = true
		rec := newRecorder(tr)
		wall, err := phase(cfg.seconds/2, rec)
		m1.read()
		if perr := stop(); err == nil {
			err = perr
		}
		if err != nil {
			return nil, err
		}
		chk := verify(w, tr) // replays are traced too: they time the simulator's calls
		total.absorb(chk)
		tr.on = false
		vals, err := layerValues(cfg, w, rec, chk, wall, m0, m1)
		if err != nil {
			return nil, err
		}
		vals["trace_overhead_frac"] = rec.opsCal.band(0.5, opBand)/plain.opsCal.band(0.5, opBand) - 1
		for _, m := range perLayer() {
			put(m.Name, m.Unit, vals[m.Name], len(rec.ops))
		}
		if err := writeJSON(cfg.traceDir, "spans.json", tr.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "traced run: %d ops in %.2fs; spans, cpu.pprof and serve snapshots in %s\n",
			len(rec.ops), wall.Seconds(), cfg.traceDir)
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0 && total.attempted > 0
	for _, e := range total.errs {
		fmt.Fprintf(out, "FAIL: %s\n", e)
	}
	return res, nil
}

// verify runs the workload's output checks into a recorder of their own.
func verify(w runner, tr *tracer) *recorder {
	chk := newRecorder(tr)
	w.check(chk)
	return chk
}

// layerValues computes the per-layer metrics of the traced phase.
// Simulated counts and host time per cycle come from the runs the bench
// drives itself: the timed rounds, or the replays of wire sessions.
func layerValues(cfg *config, w runner, rec, chk *recorder, wall time.Duration, m0, m1 runtimeStats) (map[string]float64, error) {
	vals := map[string]float64{}
	f, err := foldProfile(filepath.Join(cfg.traceDir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	nOps := float64(max(len(rec.ops), 1))
	for _, l := range cpuLayers {
		vals["cpu."+l+".frac"] = f.frac(l)
		vals["cpu."+l+".us_per_op"] = float64(f.layerNs[l]) / 1e3 / nOps
	}
	if other := f.frac("other"); other >= 0.02 {
		fmt.Fprintf(os.Stderr, "bench: %.1f%% of CPU folded into no layer; see -fold %s\n",
			100*other, filepath.Join(cfg.traceDir, "cpu.pprof"))
	}
	for _, s := range spanMetrics {
		v := rec.tr.meanMs(s.span)
		if s.unit == "us" {
			v *= 1e3
		}
		vals[s.metric] = v
	}
	for _, op := range wireOps {
		vals["serve.op."+op+".p50_ms"] = rec.wire[op].quantile(0.5)
		vals["serve.op."+op+".p99_ms"] = rec.wire[op].quantile(0.99)
	}
	if rec.insts > 0 {
		vals["core.minsts_per_s"] = float64(rec.insts) / wall.Seconds() / 1e6
	}
	if cycles := rec.cycles + chk.cycles; cycles > 0 {
		simNs := float64(rec.simNs + chk.simNs)
		vals["core.host_ns_per_cycle"] = simNs / float64(cycles)
		vals["core.host_ns_per_uop"] = simNs / float64(rec.uops+chk.uops)
	}
	vals["runtime.alloc_bytes_per_op"] = float64(m1.allocBytes-m0.allocBytes) / nOps
	vals["runtime.gc_cycles"] = float64(m1.gcCycles - m0.gcCycles)
	if cpu := m1.totalCPU - m0.totalCPU; cpu > 0 {
		vals["runtime.gc_cpu_frac"] = (m1.gcCPU - m0.gcCPU) / cpu
	}
	w.layerMetrics(rec, vals)
	return vals, nil
}
