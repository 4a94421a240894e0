// Package harness defines and runs the paper's experiments: Tables 1-2
// and Figures 3-9 of the evaluation (§5). Each experiment plans the
// simulations it needs, the benchmark kernels under the debugger back ends
// being compared, and assembles rows shaped like the paper's tables and
// figures from their results (normalized execution time relative to each
// kernel's undebugged run). The simulations run in parallel on a fixed set
// of workers, one per CPU; the tables do not depend on their order.
package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/debug"
	"repro/internal/workload"
)

// Config scales and filters an experiment run.
type Config struct {
	// Budget is the approximate number of application instructions per
	// simulation (the paper simulates each function in its entirety; we
	// size iteration counts to hit this budget and run to completion).
	Budget uint64
	// Benchmarks restricts the run to the named kernels (nil = all).
	Benchmarks []string
}

// DefaultConfig returns the standard experiment scale.
func DefaultConfig() Config {
	return Config{Budget: 600_000}
}

func (c Config) wants(name string) bool {
	return len(c.Benchmarks) == 0 || slices.Contains(c.Benchmarks, name)
}

// specs returns the wanted kernels' specs, in paper order.
func (c Config) specs() []workload.Spec {
	return slices.DeleteFunc(workload.Specs(), func(s workload.Spec) bool { return !c.wants(s.Name) })
}

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// WatchKinds are the six per-benchmark watchpoints of §5, in paper order.
var WatchKinds = []string{"HOT", "WARM1", "WARM2", "COLD", "INDIRECT", "RANGE"}

// WatchpointFor builds the named watchpoint for a kernel.
func WatchpointFor(w *workload.Workload, kind string, cond *debug.Condition) *debug.Watchpoint {
	wp := &debug.Watchpoint{Name: kind, Kind: debug.WatchScalar, Size: 8, Cond: cond}
	switch kind {
	case "HOT":
		wp.Addr = w.WP.Hot
	case "WARM1":
		wp.Addr = w.WP.Warm1
	case "WARM2":
		wp.Addr = w.WP.Warm2
	case "COLD":
		wp.Addr = w.WP.Cold
	case "INDIRECT":
		wp.Kind = debug.WatchIndirect
		wp.Addr = w.WP.Ptr
	case "RANGE":
		wp.Kind = debug.WatchRange
		wp.Addr = w.WP.Range
		wp.Length = w.WP.RangeLen
	default:
		panic("harness: unknown watchpoint kind " + kind)
	}
	return wp
}

// neverCond is the Figure 4 predicate: "compares the value of the watched
// expression to a constant it never matches".
func neverCond() *debug.Condition {
	return &debug.Condition{Op: debug.CondEq, Value: 0x7FFF_FFFF_FFFF_FFF1}
}

// fmtOver formats a normalized execution time the way the paper's log
// plots read: two decimals near 1, integers when huge.
func fmtOver(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v < 100:
		return fmt.Sprintf("%.2f", v)
	case v < 10000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// paper is the evaluation's experiments in paper order.
var paper = []*experiment{table1, table2, fig3, fig4, fig5, fig6, fig7, fig8, fig9}

// Experiments lists the available experiment IDs, sorted.
func Experiments() []string {
	out := make([]string, 0, len(paper))
	for _, e := range paper {
		out = append(out, e.id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID, its simulations in parallel. A named
// benchmark the experiment does not use yields a table with no rows.
func Run(id string, cfg Config) (*Table, error) {
	i := slices.IndexFunc(paper, func(e *experiment) bool { return e.id == id })
	if i < 0 {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, Experiments())
	}
	for _, name := range cfg.Benchmarks {
		if _, ok := workload.ByName(name); !ok {
			var have []string
			for _, spec := range workload.Specs() {
				have = append(have, spec.Name)
			}
			return nil, fmt.Errorf("harness: unknown benchmark %q (have %v)", name, have)
		}
	}
	return run(cfg, paper[i])[0], nil
}

// RunAll executes every experiment, in paper order, as one job graph:
// each kernel is built and its baseline run once for all of them, and the
// simulations of every experiment share the workers. Unknown benchmark
// names are ignored.
func RunAll(cfg Config) []*Table {
	return run(cfg, paper...)
}
