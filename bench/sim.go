package main

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/bpred"
	"repro/internal/debug"
	idise "repro/internal/dise"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// simBudget sizes the kernels as the harness does for a budget of
// application instructions per run.
const simBudget = 300_000

// iterations is harness's outer-loop sizing for a kernel and budget.
func iterations(spec workload.Spec, budget uint64) int {
	return max(20, int(float64(budget)/(float64(spec.Groups*(2+spec.Fill))+40)))
}

// sim runs the six paper kernels to halt on fresh default machines,
// undebugged (sim-plain) or under the DISE debugger back end with a COLD
// and then a HOT watchpoint (sim-dise). An op is one kernel run; a round
// is every kernel (and watch) once, in a seed-shuffled order.
type sim struct {
	cfg     *config
	watches []string
	budget  uint64
	rng     *rand.Rand
	kernels []*workload.Workload

	digests map[string]string // "kernel watch" -> the first round's digest line
	counts  simCounts         // one round's simulated statistics
}

func newSim(cfg *config, diseOn bool) *sim {
	s := &sim{cfg: cfg, watches: []string{"none"}, budget: simBudget, rng: cfg.rng(1), digests: map[string]string{}}
	if diseOn {
		s.watches = []string{"COLD", "HOT"}
	}
	if cfg.quick {
		s.budget = 5_000
	}
	return s
}

func (s *sim) name() string {
	if s.watches[0] == "none" {
		return "sim-plain"
	}
	return "sim-dise"
}

func (s *sim) setUp(tr *tracer) error {
	s.kernels = nil
	for _, spec := range workload.Specs() {
		var k *workload.Workload
		var err error
		tr.within("workload.build", nil, func() { k, err = workload.Build(spec, iterations(spec, s.budget)) })
		if err != nil {
			return err
		}
		s.kernels = append(s.kernels, k)
	}
	return nil
}

func (s *sim) tearDown() {}

func (s *sim) measure(deadline time.Time, rec *recorder) error {
	for {
		round := rec.tr.start("round", nil)
		t0 := time.Now()
		for _, ki := range s.rng.Perm(len(s.kernels)) {
			for _, watch := range s.watches {
				s.op(rec, round, s.kernels[ki], watch)
			}
		}
		rec.round(time.Since(t0))
		rec.tr.finish(round)
		rec.cal.tick()
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// op runs one kernel to halt and checks its statistics against the
// first run of the same kernel and watch.
func (s *sim) op(rec *recorder, round *span, k *workload.Workload, watch string) {
	sp := rec.tr.start("op", round)
	t0 := time.Now()
	var m *machine.Machine
	rec.tr.within("machine.new", sp, func() { m = machine.NewDefault() })
	rec.tr.within("machine.load", sp, func() { m.Load(k.Program) })
	var d *debug.Debugger
	var err error
	if watch != "none" {
		rec.tr.within("debug.install", sp, func() {
			d = debug.New(m, debug.DefaultOptions(debug.BackendDise))
			if err = d.Watch(harness.WatchpointFor(k, watch, nil)); err == nil {
				err = d.Install()
			}
		})
	}
	var st pipeline.Stats
	var host time.Duration
	if err == nil {
		rec.tr.within("machine.run", sp, func() {
			t := time.Now()
			st, err = m.Run(0)
			host = time.Since(t)
		})
	}
	lat := time.Since(t0)
	rec.tr.finish(sp)
	if err == nil && !st.Halted {
		err = errors.New("did not halt")
	}
	if err != nil {
		rec.fail(fmt.Errorf("%s %s: %w", k.Spec.Name, watch, err))
		return
	}
	rec.op(lat)
	rec.insts += st.AppInsts
	rec.sim(host, st)

	var trans debug.TransitionStats
	if d != nil {
		trans = d.Stats()
	}
	key := k.Spec.Name + " " + watch
	line := fmt.Sprintf("%s cycles=%d app_insts=%d dise_uops=%d func_insts=%d user=%d spurious=%d digest=%s",
		key, st.Cycles, st.AppInsts, st.DiseUops, st.FuncInsts, trans.User, trans.Spurious(),
		digest(st, m.MemStats(), m.Engine.Stats(), m.Core.BP.Stats(), trans))
	prev, seen := s.digests[key]
	switch {
	case !seen:
		s.digests[key] = line
		s.counts.add(m, trans)
	case prev != line:
		rec.fail(fmt.Errorf("%s: run differs from the first run:\n  first %s\n  now   %s", key, prev, line))
	}
}

func (s *sim) check(rec *recorder) {
	if s.cfg.quick {
		return
	}
	lines := make([]string, 0, len(s.digests))
	for _, k := range slices.Sorted(maps.Keys(s.digests)) {
		lines = append(lines, s.digests[k])
	}
	rec.check(s.cfg.checkGolden(s.name()+".txt", strings.Join(lines, "\n")+"\n"))
}

func (s *sim) layerMetrics(_ *recorder, out map[string]float64) { s.counts.metrics(out) }

// simCounts sums simulated statistics over a set of runs.
type simCounts struct {
	Pipe   pipeline.Stats
	Mem    machine.MemStats
	BP     bpred.Stats
	Engine idise.Stats
	Trans  debug.TransitionStats
}

func (c *simCounts) add(m *machine.Machine, trans debug.TransitionStats) {
	addUints(&c.Pipe, m.Core.Stats())
	addUints(&c.Mem, m.MemStats())
	addUints(&c.BP, m.Core.BP.Stats())
	addUints(&c.Engine, m.Engine.Stats())
	addUints(&c.Trans, trans)
}

// addUints adds every uint64 field of src (recursing into structs) to
// the same field of *dst.
func addUints(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + s.Field(i).Uint())
		case reflect.Struct:
			addUints(f.Addr().Interface(), s.Field(i).Interface())
		}
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (c *simCounts) metrics(out map[string]float64) {
	p, m := c.Pipe, c.Mem
	for name, v := range map[string]float64{
		"core.cycles":                 float64(p.Cycles),
		"core.app_insts":              float64(p.AppInsts),
		"core.dise_uops":              float64(p.DiseUops),
		"core.func_insts":             float64(p.FuncInsts),
		"core.ipc":                    p.IPC(),
		"frontend.predecode_hit_rate": p.PredecodeHitRate(),
		"frontend.uop_reuse_rate":     p.UopReuseRate(),
		"frontend.page_decodes":       float64(p.PredecodePageDecodes),
		"timing.branch_mispredicts":   float64(p.BranchMispredicts),
		"timing.dise_branch_flushes":  float64(p.DiseBranchFlushes),
		"timing.dise_call_flushes":    float64(p.DiseCallFlushes),
		"timing.traps":                float64(p.Traps),
		"timing.trap_stall_cycles":    float64(p.TrapStallCycles),
		"cache.l1i_miss_rate":         m.L1I.MissRate(),
		"cache.l1d_miss_rate":         m.L1D.MissRate(),
		"cache.l2_miss_rate":          m.L2.MissRate(),
		"cache.dtlb_miss_rate":        m.DTLB.MissRate(),
		"cache.bus_busy_cycles":       float64(m.BusBusyCycles),
		"bpred.cond_mispredict_rate":  ratio(c.BP.CondMispredict, c.BP.CondBranches),
		"dise.lookups":                float64(c.Engine.Lookups),
		"dise.scans_per_lookup":       ratio(c.Engine.PatternsScanned, c.Engine.Lookups),
		"dise.expansions":             float64(c.Engine.Expansions),
		"dise.insts_inserted":         float64(c.Engine.InstsInserted),
		"dise.repl_misses":            float64(c.Engine.ReplMisses),
		"debug.user_transitions":      float64(c.Trans.User),
		"debug.spurious_transitions":  float64(c.Trans.Spurious()),
	} {
		out[name] = v
	}
}
