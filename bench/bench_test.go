package main

import (
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/harness"
)

func TestQuantileAndTailRule(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if got := s.quantile(0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got, err := s.tail(0.9); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", got, err)
	}
	if _, err := s[:99].tail(0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it; want an error")
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("p99 of 1000 samples has %d beyond it, want 10", b)
	}
	if b := beyond(999, 0.99); b >= minSamplesBeyond {
		t.Errorf("p99 of 999 samples has %d beyond it, want fewer than %d", b, minSamplesBeyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestLayerRules(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "encoding/json.(*encodeState).string", "main.(*client).send"}, "wire"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/machine.New"}, "runtime.gc"},
		{[]string{"runtime.asyncPreempt", "repro/internal/pipeline.(*Core).step"}, "pipeline.step"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm"}, "runtime.sched"},
		{[]string{"sync.(*Mutex).Lock", "repro/internal/serve.(*Session).Stats"}, "serve"},
		{[]string{"repro/internal/isa.ALU", "repro/internal/pipeline.(*Core).execALU"}, "pipeline.exec"},
		{[]string{"repro/internal/pipeline.(*ring).push (inline)"}, "pipeline.timing"},
		{[]string{"repro/internal/obs.(*Histogram).Observe"}, "serve"},
		{[]string{"runtime._GC"}, "runtime.gc"},
		{[]string{"example.com/x.F"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// leaderFunctions reads the function column of a checked-in leaders
// table: the last tab-separated field of each row that is not a comment,
// a header or a layer's share.
func leaderFunctions(t *testing.T, path string) []string {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fns []string
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Split(line, "\t")
		last := fields[len(fields)-1]
		if _, err := strconv.ParseFloat(last, 64); strings.HasPrefix(line, "#") || fields[0] == "layer" || len(fields) < 3 || err == nil {
			continue
		}
		fns = append(fns, last)
	}
	if len(fns) == 0 {
		t.Fatalf("%s lists no functions", path)
	}
	return fns
}

// TestLeadersMapToLayers checks the fold names a layer for every
// function in this directory's leaders and in the repository's older
// top-15 table.
func TestLeadersMapToLayers(t *testing.T) {
	for _, path := range []string{"profile_leaders.txt", "../scripts/profile_leaders.txt"} {
		for _, fn := range leaderFunctions(t, path) {
			if l := layerOf([]string{fn}); l == "other" || !slices.Contains(cpuLayers, l) {
				t.Errorf("%s: %s folds into %q, not a named layer", path, fn, l)
			}
		}
	}
}

func TestGenProgramDeterministicAndAssembles(t *testing.T) {
	cfg := &config{seed: 7}
	if a, b := genProgram(cfg.rng(1), 8<<10), genProgram(cfg.rng(1), 8<<10); a != b {
		t.Fatal("the same seed generated two programs")
	}
	if genProgram(cfg.rng(1), 8<<10) == genProgram(cfg.rng(2), 8<<10) {
		t.Error("two seeds generated the same program")
	}
	for seed := uint64(0); seed < 1000; seed++ {
		buf := []int{8 << 10, 64 << 10, 512 << 10}[seed%3]
		src := genProgram((&config{seed: seed}).rng(0), buf)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if _, err := p.Symbol("v"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGoldenComparatorFlagsOneCell(t *testing.T) {
	want, err := goldenFS.ReadFile("golden/paper-suite.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(want), "\n")
	row := 3 // the first data row of Table 1
	cells := strings.Fields(lines[row])
	changed := strings.Replace(lines[row], cells[2], cells[2]+"1", 1)
	got := strings.Join(append(append(append([]string{}, lines[:row]...), changed), lines[row+1:]...), "\n")
	if err := diffLines(string(want), string(want)); err != nil {
		t.Errorf("identical text: %v", err)
	}
	err = diffLines(string(want), got)
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("one changed cell: got %v, want a mismatch at line 4", err)
	}
}

func TestSuitePassMatchesRunAll(t *testing.T) {
	s := newSuite(&config{quick: true})
	rec := newRecorder(nil)
	if err := s.measure(time.Time{}, rec); err != nil || rec.failed > 0 {
		t.Fatal(err, rec.errs)
	}
	var b strings.Builder
	for _, tb := range harness.RunAll(harness.Config{Budget: s.hcfg.Budget, Benchmarks: s.kernels}) {
		if len(tb.Rows) > 0 {
			b.WriteString(tb.String())
			b.WriteByte('\n')
		}
	}
	if err := diffLines(b.String(), s.first); err != nil {
		t.Error(err)
	}
}

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b := readBenchmarkJSON(t)
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, catalog %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the catalog")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := slices.Sorted(maps.Keys(workloads)); !reflect.DeepEqual(slices.Sorted(slices.Values(names)), want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

// TestQuickRunsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks each reports exactly the metrics BENCHMARK.json
// names, with correct outputs.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range b.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range b.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	devNull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := &config{workload: w.Name, seed: 1, seconds: 0.2, trace: trace, traceDir: t.TempDir(), quick: true}
			res, err := run(cfg, devNull)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if got, want := slices.Sorted(maps.Keys(res.Metrics)), slices.Sorted(slices.Values(want[trace])); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.Name, trace, got, want)
			}
		}
	}
}
