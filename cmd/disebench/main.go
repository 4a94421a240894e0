// Command disebench regenerates the paper's tables and figures.
//
// Usage:
//
//	disebench -exp fig3                 # one experiment
//	disebench -exp all                  # the whole evaluation
//	disebench -exp fig6 -bench crafty   # restrict benchmarks
//	disebench -budget 2000000           # more instructions per run
//
// Output is a text table per experiment: normalized execution times
// (relative to the undebugged baseline) in the same row/series structure
// as the paper. The simulations run in parallel, one per CPU; -exp all runs
// the whole evaluation as one set, so its tables share each kernel's build
// and baseline run and print together at the end.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, table2, fig3..fig9, or all)")
	budget := flag.Uint64("budget", 600_000, "approximate application instructions per run")
	bench := flag.String("bench", "", "comma-separated benchmark subset (default all)")
	flag.Parse()

	cfg := harness.Config{Budget: *budget}
	if *bench != "" {
		cfg.Benchmarks = strings.Split(*bench, ",")
	}

	start := time.Now()
	var tables []*harness.Table
	if *exp == "all" {
		// RunAll ignores unknown names, so check them here.
		for _, name := range cfg.Benchmarks {
			if _, ok := workload.ByName(name); !ok {
				var have []string
				for _, spec := range workload.Specs() {
					have = append(have, spec.Name)
				}
				fail(fmt.Errorf("unknown benchmark %q (have %v)", name, have))
			}
		}
		tables = harness.RunAll(cfg)
	} else {
		t, err := harness.Run(*exp, cfg)
		if err != nil {
			fail(err)
		}
		tables = []*harness.Table{t}
	}
	for _, t := range tables {
		fmt.Println(t)
		fmt.Println()
	}
	fmt.Printf("(%s completed in %v)\n", *exp, time.Since(start).Round(time.Millisecond))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "disebench:", err)
	os.Exit(1)
}
