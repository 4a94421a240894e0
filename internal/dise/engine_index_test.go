package dise

import (
	"testing"

	"repro/internal/isa"
)

// Tests for the pattern-table walk: a lookup examines, and counts in
// PatternsScanned, only the productions whose class key admits the
// fetched instruction's class or, lacking a class key, whose PC
// constraint admits the fetch PC; and the matching semantics — most
// specific wins, earliest install breaks ties — hold whatever shape the
// competing patterns have.

func prodFor(name string, p Pattern) *Production {
	return &Production{Name: name, Pattern: p, Replacement: []TemplateInst{TInst()}}
}

func TestLookupScansOnlyClassBucket(t *testing.T) {
	e := NewEngine(DefaultConfig())
	for _, p := range []*Production{
		prodFor("stores", MatchClass(isa.ClassStore)),
		prodFor("stq", MatchOp(isa.OpStq)),
		prodFor("loads", MatchClass(isa.ClassLoad)),
		prodFor("cw", MatchCodeword(7)),
	} {
		if err := e.Install(p); err != nil {
			t.Fatal(err)
		}
	}

	// No class key admits an ALU instruction and every pattern has one:
	// the lookup must examine zero productions.
	before := e.Stats().PatternsScanned
	if _, ok := e.Lookup(isa.Inst{Op: isa.OpAddq}, 0x100); ok {
		t.Error("ALU inst matched a store/load/codeword table")
	}
	if got := e.Stats().PatternsScanned - before; got != 0 {
		t.Errorf("ALU lookup scanned %d productions, want 0", got)
	}

	// A store examines the two store-keyed productions only.
	before = e.Stats().PatternsScanned
	p, ok := e.Lookup(isa.Inst{Op: isa.OpStq}, 0x100)
	if !ok || p.Name != "stq" {
		t.Fatalf("store lookup = %v, want stq (op beats class)", p)
	}
	if got := e.Stats().PatternsScanned - before; got != 2 {
		t.Errorf("store lookup scanned %d productions, want 2", got)
	}
}

func TestAnyClassPatternsMatchEveryClass(t *testing.T) {
	e := NewEngine(DefaultConfig())
	pcProd := prodFor("at-pc", MatchPC(0x2000))
	classProd := prodFor("stores", MatchClass(isa.ClassStore))
	if err := e.Install(classProd); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(pcProd); err != nil {
		t.Fatal(err)
	}
	// The PC pattern has no class key but must still win at its PC
	// (specificity 16 beats the class's 1) for any class.
	if p, ok := e.Lookup(isa.Inst{Op: isa.OpStq}, 0x2000); !ok || p != pcProd {
		t.Errorf("store at watched PC = %v, want at-pc", p)
	}
	if p, ok := e.Lookup(isa.Inst{Op: isa.OpAddq}, 0x2000); !ok || p != pcProd {
		t.Errorf("ALU at watched PC = %v, want at-pc", p)
	}
	if p, ok := e.Lookup(isa.Inst{Op: isa.OpStq}, 0x3000); !ok || p != classProd {
		t.Errorf("store off the watched PC = %v, want stores", p)
	}
}

func TestTieBreaksTowardEarliestInstallAcrossBuckets(t *testing.T) {
	// A PC pattern (no class key, specificity 16) and a bare codeword
	// pattern (keyed to the codeword's class, also specificity 16 — no Op
	// constraint) tie on a codeword instruction at that PC; the earlier
	// install must win, whichever shape it has.
	nine := int64(9)
	cw := isa.Inst{Op: isa.OpCodeword, Imm: 9}
	first := prodFor("first", MatchPC(0x4000))
	second := prodFor("second", Pattern{Codeword: &nine})
	e := NewEngine(DefaultConfig())
	if err := e.Install(first); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(second); err != nil {
		t.Fatal(err)
	}
	if p, _ := e.Lookup(cw, 0x4000); p != first {
		t.Errorf("tie broke to %q, want first-installed", p.Name)
	}

	// And in the opposite install order the codeword production wins.
	e2 := NewEngine(DefaultConfig())
	a := prodFor("cw-first", Pattern{Codeword: &nine})
	b := prodFor("pc-second", MatchPC(0x4000))
	if err := e2.Install(a); err != nil {
		t.Fatal(err)
	}
	if err := e2.Install(b); err != nil {
		t.Fatal(err)
	}
	if p, _ := e2.Lookup(cw, 0x4000); p != a {
		t.Errorf("tie broke to %q, want cw-first", p.Name)
	}
}

func TestIndexSurvivesRemoveAndClear(t *testing.T) {
	e := NewEngine(DefaultConfig())
	st := prodFor("stores", MatchClass(isa.ClassStore))
	pc := prodFor("at-pc", MatchPC(0x1000))
	if err := e.Install(st); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(pc); err != nil {
		t.Fatal(err)
	}
	if !e.Remove(st) {
		t.Fatal("remove failed")
	}
	if _, ok := e.Lookup(isa.Inst{Op: isa.OpStq}, 0x9000); ok {
		t.Error("removed class production still matches")
	}
	if _, ok := e.Lookup(isa.Inst{Op: isa.OpStq}, 0x1000); !ok {
		t.Error("any-class production lost by unrelated Remove")
	}
	e.Clear()
	if _, ok := e.Lookup(isa.Inst{Op: isa.OpStq}, 0x1000); ok {
		t.Error("Clear left a production matching")
	}
	// Reinstall after Clear must work.
	if err := e.Install(prodFor("stores2", MatchClass(isa.ClassStore))); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(isa.Inst{Op: isa.OpStq}, 0x9000); !ok {
		t.Error("install after Clear not matched")
	}
}

// TestBreakpointsOffThePCScanNothing pins PatternsScanned for
// PC-constrained productions (the shape every breakpoint takes): a lookup
// at another PC examines none of them, and a lookup at a breakpoint PC
// examines only that breakpoint.
func TestBreakpointsOffThePCScanNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PatternEntries = 128
	e := NewEngine(cfg)
	const nBreaks = 64
	for i := 0; i < nBreaks; i++ {
		if err := e.Install(prodFor("bp", MatchPC(0x10000+uint64(i)*4))); err != nil {
			t.Fatal(err)
		}
	}
	inst := isa.Inst{Op: isa.OpAddq}

	before := e.Stats().PatternsScanned
	if _, ok := e.Lookup(inst, 0x4000); ok {
		t.Fatal("lookup off every breakpoint matched")
	}
	if got := e.Stats().PatternsScanned - before; got != 0 {
		t.Errorf("lookup away from %d breakpoints scanned %d productions, want 0", nBreaks, got)
	}

	before = e.Stats().PatternsScanned
	p, ok := e.Lookup(inst, 0x10000+32*4)
	if !ok || *p.Pattern.PC != 0x10000+32*4 {
		t.Fatalf("lookup at breakpoint = (%v,%v)", p, ok)
	}
	if got := e.Stats().PatternsScanned - before; got != 1 {
		t.Errorf("lookup at a breakpoint scanned %d productions, want 1", got)
	}

	// Removing a breakpoint stops its match; the rest keep matching.
	var victim *Production
	for _, p := range e.Productions() {
		if *p.Pattern.PC == 0x10000 {
			victim = p
		}
	}
	if !e.Remove(victim) {
		t.Fatal("remove failed")
	}
	if _, ok := e.Lookup(inst, 0x10000); ok {
		t.Error("removed breakpoint still matches")
	}
	if _, ok := e.Lookup(inst, 0x10000+4); !ok {
		t.Error("sibling breakpoint lost by Remove")
	}
}

// BenchmarkLookup64Breakpoints measures an unmemoized lookup with 64
// breakpoints installed, at a PC none of them match: one walk over the
// table, which the fetch path makes only when a slot's memo fills.
func BenchmarkLookup64Breakpoints(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PatternEntries = 128
	e := NewEngine(cfg)
	for i := 0; i < 64; i++ {
		if err := e.Install(prodFor("bp", MatchPC(0x10000+uint64(i)*4))); err != nil {
			b.Fatal(err)
		}
	}
	inst := isa.Inst{Op: isa.OpAddq}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Lookup(inst, 0x4000); ok {
			b.Fatal("unexpected match")
		}
	}
	st := e.Stats()
	b.ReportMetric(float64(st.PatternsScanned)/float64(st.Lookups), "scans/lookup")
}

// TestReexpandUsesIndex pins Reexpand to the same matcher: it must find
// the identical production Lookup does, without counting a lookup.
func TestReexpandUsesIndex(t *testing.T) {
	e := NewEngine(DefaultConfig())
	if err := e.Install(prodFor("stores", MatchClass(isa.ClassStore))); err != nil {
		t.Fatal(err)
	}
	lookups := e.Stats().Lookups
	exp, ok := e.Reexpand(isa.Inst{Op: isa.OpStq}, 0x100)
	if !ok || exp.Prod.Name != "stores" {
		t.Fatalf("reexpand = (%v,%v)", exp.Prod, ok)
	}
	if e.Stats().Lookups != lookups {
		t.Error("Reexpand counted a Lookup")
	}
}
