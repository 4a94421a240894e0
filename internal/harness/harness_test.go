package harness

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Shape tests: the reproduction's claim is not that absolute numbers match
// the paper's testbed, but that the qualitative results hold — who wins,
// by roughly what factor, and where the crossovers are. These tests assert
// those shapes at reduced scale.

func cfg(benches ...string) Config {
	return Config{Budget: 120_000, Benchmarks: benches}
}

// cell parses a table cell as a float; "n/a" and "-" return ok=false.
func cell(t *testing.T, tb *Table, row int, col string) (float64, bool) {
	t.Helper()
	ci := -1
	for i, c := range tb.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no column %q in %v", col, tb.Columns)
	}
	s := tb.Rows[row][ci]
	if s == "n/a" || s == "-" || s == "err" {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.ReplaceAll(s, "e+", "e+"), 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", s, err)
	}
	return v, true
}

func findRow(t *testing.T, tb *Table, keys ...string) int {
	t.Helper()
	for i, row := range tb.Rows {
		match := true
		for j, k := range keys {
			if row[j] != k {
				match = false
			}
		}
		if match {
			return i
		}
	}
	t.Fatalf("no row %v in table %s", keys, tb.ID)
	return -1
}

func TestTable1Shape(t *testing.T) {
	tb := Table1(cfg())
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// mcf's IPC must be far below the others.
	mcf, _ := cell(t, tb, findRow(t, tb, "mcf"), "IPC")
	bzip2, _ := cell(t, tb, findRow(t, tb, "bzip2"), "IPC")
	if mcf > 0.6 || bzip2 < 2.0 {
		t.Errorf("IPC shape wrong: mcf=%.2f bzip2=%.2f", mcf, bzip2)
	}
}

func TestTable2Shape(t *testing.T) {
	tb := Table2(cfg("crafty"))
	r := findRow(t, tb, "crafty")
	hot, _ := cell(t, tb, r, "HOT")
	cold, _ := cell(t, tb, r, "COLD")
	if hot < 2000 {
		t.Errorf("crafty HOT = %.0f per 100K, want thousands", hot)
	}
	if cold > 20 {
		t.Errorf("crafty COLD = %.1f per 100K, want rare", cold)
	}
}

// TestFig3Shape asserts the paper's headline: DISE stays within tens of
// percent; single-stepping is 10^3-10^5; VM collapses exactly when the
// watched variable shares a page with hot data; hardware registers suffer
// under silent stores; only DISE and single-stepping handle INDIRECT.
func TestFig3Shape(t *testing.T) {
	tb := Fig3(cfg("bzip2", "twolf"))

	for _, bench := range []string{"bzip2", "twolf"} {
		for _, kind := range []string{"WARM2", "COLD"} {
			r := findRow(t, tb, bench, kind)
			d, ok := cell(t, tb, r, "DISE")
			if !ok || d > 2.0 {
				t.Errorf("%s/%s DISE overhead = %.2f, want < 2", bench, kind, d)
			}
			ss, _ := cell(t, tb, r, "single-step")
			if ss < 1000 {
				t.Errorf("%s/%s single-step = %.0f, want >= 1000", bench, kind, ss)
			}
		}
	}

	// VM pathology: WARM1/bzip2 shares a page with hot locals.
	vm, ok := cell(t, tb, findRow(t, tb, "bzip2", "WARM1"), "virtual-mem")
	if !ok || vm < 100 {
		t.Errorf("WARM1/bzip2 VM = %.1f, want catastrophic (page sharing)", vm)
	}
	// VM fine when the page is private: COLD/bzip2.
	vm, ok = cell(t, tb, findRow(t, tb, "bzip2", "COLD"), "virtual-mem")
	if !ok || vm > 1.2 {
		t.Errorf("COLD/bzip2 VM = %.2f, want ~1.0 (private page)", vm)
	}
	// COLD/twolf shares its page: VM collapses there too (§5.1).
	vm, ok = cell(t, tb, findRow(t, tb, "twolf", "COLD"), "virtual-mem")
	if !ok || vm < 50 {
		t.Errorf("COLD/twolf VM = %.1f, want high", vm)
	}

	// Hardware registers: fine for bzip2's never-silent HOT, bad for
	// twolf's 50%-silent HOT (spurious value transitions).
	hw, ok := cell(t, tb, findRow(t, tb, "bzip2", "HOT"), "hardware")
	if !ok || hw > 1.2 {
		t.Errorf("HOT/bzip2 hardware = %.2f, want ~1.0 (no silent stores)", hw)
	}
	hw, ok = cell(t, tb, findRow(t, tb, "twolf", "HOT"), "hardware")
	if !ok || hw < 20 {
		t.Errorf("HOT/twolf hardware = %.1f, want high (silent stores)", hw)
	}

	// INDIRECT: VM and hardware must report n/a; DISE must work.
	r := findRow(t, tb, "twolf", "INDIRECT")
	if _, ok := cell(t, tb, r, "virtual-mem"); ok {
		t.Error("INDIRECT under VM should be n/a")
	}
	if _, ok := cell(t, tb, r, "hardware"); ok {
		t.Error("INDIRECT under hardware should be n/a")
	}
	if d, ok := cell(t, tb, r, "DISE"); !ok || d > 3 {
		t.Errorf("INDIRECT/twolf DISE = %.2f, want modest", d)
	}
	// RANGE: hardware n/a, VM works (page granularity), DISE modest.
	r = findRow(t, tb, "twolf", "RANGE")
	if _, ok := cell(t, tb, r, "hardware"); ok {
		t.Error("RANGE under hardware should be n/a")
	}
}

// TestFig4Shape: with a never-true predicate, every write to the watched
// address becomes a spurious predicate transition for VM/HW — but not for
// DISE, which evaluates the predicate in the application.
func TestFig4Shape(t *testing.T) {
	tb := Fig4(cfg("twolf"))
	r := findRow(t, tb, "twolf", "HOT")
	d, ok := cell(t, tb, r, "DISE")
	hw, _ := cell(t, tb, r, "hardware")
	vm, _ := cell(t, tb, r, "virtual-mem")
	if !ok || d > 2 {
		t.Errorf("conditional HOT/twolf DISE = %.2f, want small", d)
	}
	if hw < 100 || vm < 100 {
		t.Errorf("conditional HOT/twolf hw=%.0f vm=%.0f, want huge (spurious predicate transitions)", hw, vm)
	}
	// COLD under a conditional: written ~80 per 100K stores for twolf,
	// which is above the ~1-per-100K crossover, so DISE should win there
	// too (§5.2).
	r = findRow(t, tb, "twolf", "COLD")
	d, ok = cell(t, tb, r, "DISE")
	hw, _ = cell(t, tb, r, "hardware")
	if !ok {
		t.Fatal("COLD/twolf DISE conditional should be supported")
	}
	if hw < d {
		t.Errorf("conditional COLD/twolf: hw %.2f should exceed DISE %.2f", hw, d)
	}
}

func TestFig5Shape(t *testing.T) {
	tb := Fig5(cfg("bzip2", "gcc"))
	// Small footprint: comparable. Large footprint (gcc): rewriting pays
	// I-cache cost and loses to DISE.
	rb := findRow(t, tb, "bzip2")
	dise, _ := cell(t, tb, rb, "DISE")
	rw, _ := cell(t, tb, rb, "binary-rewriting")
	if rw > dise*2.5 {
		t.Errorf("bzip2: rewriting %.2f vs DISE %.2f, want comparable (small footprint)", rw, dise)
	}
	rg := findRow(t, tb, "gcc")
	diseG, _ := cell(t, tb, rg, "DISE")
	rwG, _ := cell(t, tb, rg, "binary-rewriting")
	if rwG <= diseG {
		t.Errorf("gcc: rewriting %.2f should exceed DISE %.2f (I-cache pressure)", rwG, diseG)
	}
}

func TestFig6Shape(t *testing.T) {
	tb := Fig6(cfg("crafty"))
	// Up to 4 watchpoints the hardware registers are competitive...
	r4 := findRow(t, tb, "crafty", "4")
	hw4, _ := cell(t, tb, r4, "hw/virtual-mem")
	if hw4 > 2 {
		t.Errorf("crafty/4wp hardware = %.2f, want near 1", hw4)
	}
	// ...at 5+ the VM fallback collapses while every DISE strategy stays
	// orders of magnitude better.
	r5 := findRow(t, tb, "crafty", "5")
	hw5, _ := cell(t, tb, r5, "hw/virtual-mem")
	if hw5 < 100 {
		t.Errorf("crafty/5wp hardware+VM = %.2f, want collapse", hw5)
	}
	for _, col := range []string{"serial (DISE)", "byte-bloom (DISE)", "bit-bloom (DISE)"} {
		d, ok := cell(t, tb, r5, col)
		if !ok || d*100 > hw5 {
			t.Errorf("crafty/5wp %s = %.2f, want >= 100x better than %.0f", col, d, hw5)
		}
	}
	// 16 watchpoints still fine under DISE.
	r16 := findRow(t, tb, "crafty", "16")
	for _, col := range []string{"serial (DISE)", "byte-bloom (DISE)", "bit-bloom (DISE)"} {
		if d, ok := cell(t, tb, r16, col); !ok || d > 5 {
			t.Errorf("crafty/16wp %s = %.2f, want modest", col, d)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	tb := Fig7(cfg("bzip2"))
	// Without conditional call/trap support every store flushes: the
	// bottom-group variants must be clearly worse than their top-group
	// counterparts (the paper's "intra-replacement-sequence control
	// transfers should be avoided" lesson).
	for _, kind := range []string{"WARM2", "COLD"} {
		r := findRow(t, tb, "bzip2", kind)
		with, _ := cell(t, tb, r, "match/eval+cc")
		without, _ := cell(t, tb, r, "match/eval")
		if without < with*1.5 {
			t.Errorf("bzip2/%s: no-ccall %.2f should be >=1.5x ccall %.2f", kind, without, with)
		}
	}
	// For HOT/bzip2, inline evaluation beats match-address-then-call
	// (the paper's 4.62x example: 25% of stores trigger the call).
	r := findRow(t, tb, "bzip2", "HOT")
	matchEval, _ := cell(t, tb, r, "match/eval+cc")
	evalInline, _ := cell(t, tb, r, "eval/-+ct")
	if evalInline > matchEval {
		t.Errorf("HOT/bzip2: inline eval %.2f should beat match+call %.2f", evalInline, matchEval)
	}
}

func TestFig8Shape(t *testing.T) {
	tb := Fig8(cfg("bzip2"))
	r := findRow(t, tb, "bzip2", "HOT")
	without, _ := cell(t, tb, r, "without MT")
	with, _ := cell(t, tb, r, "with MT")
	if with >= without {
		t.Errorf("HOT/bzip2: MT %.2f should beat no-MT %.2f", with, without)
	}
	// COLD barely calls the function; MT must not make things worse.
	r = findRow(t, tb, "bzip2", "COLD")
	without, _ = cell(t, tb, r, "without MT")
	with, _ = cell(t, tb, r, "with MT")
	if with > without*1.1 {
		t.Errorf("COLD/bzip2: MT %.2f should not exceed no-MT %.2f", with, without)
	}
}

func TestFig9Shape(t *testing.T) {
	tb := Fig9(cfg("twolf"))
	r := findRow(t, tb, "twolf")
	plain, _ := cell(t, tb, r, "not protected")
	prot, _ := cell(t, tb, r, "protected")
	if prot < plain {
		t.Errorf("protection made things faster? %.2f vs %.2f", prot, plain)
	}
	if prot > plain*1.6 {
		t.Errorf("protection overhead too high: %.2f vs %.2f (want modest)", prot, plain)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope", cfg()); err == nil {
		t.Error("want error for unknown experiment")
	}
	ids := Experiments()
	if len(ids) != 9 {
		t.Errorf("experiments = %v", ids)
	}
	tb, err := Run("table1", cfg("mcf"))
	if err != nil || tb.ID != "table1" {
		t.Errorf("dispatch failed: %v %v", tb, err)
	}
	if !strings.Contains(tb.String(), "mcf") {
		t.Error("table text missing benchmark")
	}
	// An unknown kernel is an error that names it and the known ones...
	if _, err := Run("fig6", cfg("nosuch")); err == nil ||
		!strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "crafty") {
		t.Errorf("unknown benchmark: err = %v, want one naming it and the known kernels", err)
	}
	// ...but a known one the experiment does not use gives an empty table.
	if tb, err := Run("fig6", cfg("bzip2")); err != nil || len(tb.Rows) != 0 {
		t.Errorf("fig6 on bzip2: %v, err %v; want a table with no rows and no error", tb, err)
	}
}

// TestRunConcurrent calls Run from several goroutines at once, on
// different experiments and kernels, two callers each: every table must
// equal the one the same call made alone, and every call must return
// (the callers share the workers, which never wait on each other).
func TestRunConcurrent(t *testing.T) {
	calls := []struct {
		id      string
		kernels []string
	}{
		{"fig3", []string{"crafty"}},
		{"fig6", []string{"gcc"}},
		{"table1", nil},
	}
	run := func(i int) (string, error) {
		tb, err := Run(calls[i].id, Config{Budget: 5_000, Benchmarks: calls[i].kernels})
		if err != nil {
			return "", err
		}
		return tb.String(), nil
	}
	want := make([]string, len(calls))
	for i := range calls {
		var err error
		if want[i], err = run(i); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 2
	got := make([]string, callers*len(calls))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = run(i % len(calls)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if c := calls[i%len(calls)]; g != want[i%len(calls)] {
			t.Errorf("concurrent %s %v differs from the same call alone:\n%s\nwant:\n%s", c.id, c.kernels, g, want[i%len(calls)])
		}
	}
}
