package harness

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"repro/internal/debug"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// An experiment is one table of the evaluation, in two steps: plan lists
// the table's rows and the simulations each needs, and assemble builds the
// table from their results. Every simulation is independent of the others,
// so the executor (run) may run them in any order and on any worker; the
// table comes out in plan order all the same.
type experiment struct {
	id, title string
	columns   []string
	notes     []string
	// plan lists the rows for the wanted kernels, in paper order.
	plan func(Config) []row
	// tail formats the cells a row takes from its kernel's build and
	// baseline run rather than from its own jobs (nil: none do).
	tail func(*kernel) []string
}

// A row is one planned table row: the kernel and the row's labels, then
// one job per measured column, left to right.
type row struct {
	kernel string
	labels []string
	jobs   []job
}

// A job is one debugged simulation: the row's kernel run to halt on a
// fresh machine under a configured debugger. After the run it holds the
// outcome; the job's cell is its cycles over the baseline's.
type job struct {
	opts debug.Options
	mcfg *machine.Config // nil: the default machine
	// setup registers the watchpoints and breakpoints before Install.
	setup func(*workload.Workload, *debug.Debugger) error
	// failed is the cell shown when the debugger cannot express the set-up
	// ("" shows "-").
	failed string

	stats pipeline.Stats
	err   error
}

// kernel is one benchmark kernel of a call: its build, which every job on
// it reads and none writes, and its undebugged baseline run.
type kernel struct {
	w    *workload.Workload
	base baseline
}

// baseline is a kernel's undebugged run: core and memory-system
// statistics, and how many stores hit each of Table 2's watchpoints.
type baseline struct {
	stats  pipeline.Stats
	mem    machine.MemStats
	writes [len(table2Kinds)]uint64
}

// table2Kinds are the watchpoints whose writes Table 2 counts, in its
// column order. A store counts toward the first one it lands in.
var table2Kinds = [...]string{"HOT", "WARM1", "WARM2", "COLD", "RANGE"}

// runBaseline runs the kernel undebugged, to completion, counting the
// stores to Table 2's watchpoints on the way (the count adds no cycles).
func (k *kernel) runBaseline() {
	wp := k.w.WP
	spans := [len(table2Kinds)]struct{ lo, n uint64 }{
		{wp.Hot, 8}, {wp.Warm1, 8}, {wp.Warm2, 8}, {wp.Cold, 8}, {wp.Range, wp.RangeLen},
	}
	m := machine.NewDefault()
	m.Load(k.w.Program)
	m.Core.Hooks.OnStore = func(ev pipeline.StoreEvent) uint64 {
		for i, s := range spans {
			if ev.Addr >= s.lo && ev.Addr < s.lo+s.n {
				k.base.writes[i]++
				break
			}
		}
		return 0
	}
	k.base.stats = m.MustRun(0)
	k.base.mem = m.MemStats()
}

// run simulates the job on kernel w.
func (j *job) run(w *workload.Workload) {
	cfg := machine.DefaultConfig()
	if j.mcfg != nil {
		cfg = *j.mcfg
	}
	m := machine.New(cfg)
	m.Load(w.Program)
	d := debug.New(m, j.opts)
	if j.err = j.setup(w, d); j.err != nil {
		return
	}
	if j.err = d.Install(); j.err != nil {
		return
	}
	j.stats, j.err = m.Run(0)
}

// cell formats the job's normalized execution time against the baseline's
// cycles.
func (j *job) cell(baseCycles uint64) string {
	if j.err != nil {
		return cmp.Or(j.failed, "-")
	}
	return fmtOver(float64(j.stats.Cycles) / float64(baseCycles))
}

// assemble builds e's table from its planned rows once their jobs and
// their kernels' baselines have run; it only reads them.
func (e *experiment) assemble(rows []row, kernels map[string]*kernel) *Table {
	t := &Table{ID: e.id, Title: e.title, Columns: slices.Clone(e.columns), Notes: slices.Clone(e.notes)}
	for _, r := range rows {
		k := kernels[r.kernel]
		cells := append([]string{r.kernel}, r.labels...)
		for i := range r.jobs {
			cells = append(cells, r.jobs[i].cell(k.base.stats.Cycles))
		}
		if e.tail != nil {
			cells = append(cells, e.tail(k)...)
		}
		t.Add(cells...)
	}
	return t
}

// run plans exps, builds each kernel their rows use once, runs every
// kernel's baseline and every planned job on the workers, and assembles
// the tables in the order of exps. Nothing it builds outlives the call.
func run(cfg Config, exps ...*experiment) []*Table {
	if cfg.Budget == 0 {
		cfg.Budget = DefaultConfig().Budget
	}
	plans := make([][]row, len(exps))
	kernels := make(map[string]*kernel)
	var tasks []func()
	for i, e := range exps {
		plans[i] = e.plan(cfg)
		for _, r := range plans[i] {
			k := kernels[r.kernel]
			if k == nil {
				spec, ok := workload.ByName(r.kernel)
				if !ok {
					panic("harness: unknown benchmark " + r.kernel)
				}
				k = &kernel{w: workload.MustBuild(spec, iterations(spec, cfg.Budget))}
				kernels[r.kernel] = k
				tasks = append(tasks, k.runBaseline)
			}
			for j := range r.jobs {
				jb := &r.jobs[j]
				tasks = append(tasks, func() { jb.run(k.w) })
			}
		}
	}
	parallel(tasks)
	tables := make([]*Table, len(exps))
	for i, e := range exps {
		tables[i] = e.assemble(plans[i], kernels)
	}
	return tables
}

// iterations sizes a kernel's outer loop so the undebugged run executes
// roughly budget application instructions.
func iterations(spec workload.Spec, budget uint64) int {
	instsPerIter := float64(spec.Groups*(2+spec.Fill)) + 40
	it := int(float64(budget) / instsPerIter)
	if it < 20 {
		it = 20
	}
	return it
}

// workers run the simulations of every call: runtime.GOMAXPROCS(0)
// goroutines, started by the first call and kept for the life of the
// process. They are not started per call because the runtime keeps each
// exited goroutine's descriptor on a per-P free list, so goroutines started
// and ended per call leave memory behind that a fixed set does not.
var workers struct {
	start sync.Once
	tasks chan func()
}

// parallel runs fns on the workers and returns once all have returned.
// Only code outside the workers may call it: a task that waited on the
// workers would hold one of them, and tasks all waiting so would leave none
// to run what they wait for.
func parallel(fns []func()) {
	workers.start.Do(func() {
		workers.tasks = make(chan func())
		for range runtime.GOMAXPROCS(0) {
			go func() {
				for {
					(<-workers.tasks)()
				}
			}()
		}
	})
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, f := range fns {
		workers.tasks <- func() { f(); wg.Done() }
	}
	wg.Wait()
}
