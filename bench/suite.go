package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

// suiteBudget is the paper suite's instructions per simulation, small
// enough that whole passes fit the run.
const suiteBudget = 30_000

// suite regenerates the paper's tables and figures (harness.RunAll's
// experiments). An op is one experiment on one kernel; a round is a full
// pass, in a seed-shuffled op order, whose reassembled tables must match
// the golden file.
type suite struct {
	cfg     *config
	hcfg    harness.Config
	kernels []string
	empty   map[[2]string]bool // experiment/kernel pairs with no rows
	first   string             // the first pass's tables
}

func newSuite(cfg *config) *suite {
	s := &suite{cfg: cfg, hcfg: harness.Config{Budget: suiteBudget}, empty: map[[2]string]bool{}}
	for _, spec := range workload.Specs() {
		s.kernels = append(s.kernels, spec.Name)
	}
	if cfg.quick {
		s.hcfg.Budget, s.kernels = 2_000, []string{"crafty"}
	}
	return s
}

// setUp runs Table 1, which builds every kernel and its baseline run.
// It is not traced, so harness spans cover timed passes only.
func (s *suite) setUp(*tracer) error {
	_, err := s.experiment(nil, nil, "table1", s.kernels)
	return err
}

func (s *suite) tearDown() {}

func (s *suite) experiment(tr *tracer, parent *span, id string, kernels []string) (*harness.Table, error) {
	cfg := s.hcfg
	cfg.Benchmarks = kernels
	var t *harness.Table
	var err error
	tr.within("harness."+id, parent, func() { t, err = harness.Run(id, cfg) })
	return t, err
}

func (s *suite) measure(deadline time.Time, rec *recorder) error {
	type cell struct{ id, kernel string }
	var cells []cell
	for _, id := range suiteExperiments {
		for _, k := range s.kernels {
			if !s.empty[[2]string{id, k}] {
				cells = append(cells, cell{id, k})
			}
		}
	}
	rng := s.cfg.rng(2)
	for {
		round := rec.tr.start("round", nil)
		t0 := time.Now()
		var calibrating time.Duration // between ops, not part of the pass
		tables := map[[2]string]*harness.Table{}
		for _, i := range rng.Perm(len(cells)) {
			calibrating += rec.cal.tick()
			c := cells[i]
			ct := time.Now()
			t, err := s.experiment(rec.tr, round, c.id, []string{c.kernel})
			if err != nil {
				rec.fail(fmt.Errorf("%s %s: %w", c.id, c.kernel, err))
				continue
			}
			if len(t.Rows) == 0 {
				s.empty[[2]string{c.id, c.kernel}] = true // not part of this experiment
				continue
			}
			rec.op(time.Since(ct))
			tables[[2]string{c.id, c.kernel}] = t
		}
		rec.round(time.Since(t0) - calibrating)
		rec.tr.finish(round)
		s.checkPass(rec, tables)
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// checkPass reassembles each experiment's table from its per-kernel
// tables, in paper order, and compares the pass with the first one.
func (s *suite) checkPass(rec *recorder, tables map[[2]string]*harness.Table) {
	var b strings.Builder
	for _, id := range suiteExperiments {
		var all *harness.Table
		for _, k := range s.kernels {
			t := tables[[2]string{id, k}]
			switch {
			case t == nil:
			case all == nil:
				all = &harness.Table{ID: t.ID, Title: t.Title, Columns: t.Columns, Notes: t.Notes}
				all.Rows = append(all.Rows, t.Rows...)
			default:
				all.Rows = append(all.Rows, t.Rows...)
			}
		}
		if all != nil {
			b.WriteString(all.String())
			b.WriteByte('\n')
		}
	}
	got := b.String()
	switch {
	case s.first == "":
		s.first = got
	case got != s.first:
		rec.fail(fmt.Errorf("paper-suite pass differs from the first pass: %v", diffLines(s.first, got)))
	}
}

func (s *suite) check(rec *recorder) {
	if !s.cfg.quick {
		rec.check(s.cfg.checkGolden("paper-suite.txt", s.first))
	}
}

// layerMetrics reports each experiment's time per pass.
func (s *suite) layerMetrics(rec *recorder, out map[string]float64) {
	if n := len(rec.rounds); n > 0 {
		for _, id := range suiteExperiments {
			out["harness."+id+"_s"] = rec.tr.sumMs("harness."+id) / 1e3 / float64(n)
		}
	}
}
