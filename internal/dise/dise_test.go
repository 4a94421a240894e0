package dise

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestPatternMatching(t *testing.T) {
	st := isa.Inst{Op: isa.OpStq, RA: isa.R4, RB: isa.SP, Imm: 32}
	ld := isa.Inst{Op: isa.OpLdq, RA: isa.R4, RB: isa.SP, Imm: 32}
	cases := []struct {
		p    Pattern
		in   isa.Inst
		pc   uint64
		want bool
	}{
		{MatchClass(isa.ClassStore), st, 0x1000, true},
		{MatchClass(isa.ClassStore), ld, 0x1000, false},
		{MatchOp(isa.OpStq), st, 0, true},
		{MatchOp(isa.OpStl), st, 0, false},
		{MatchPC(0x1000), st, 0x1000, true},
		{MatchPC(0x1000), st, 0x1004, false},
		{MatchClass(isa.ClassLoad).WithRB(isa.SP), ld, 0, true},
		{MatchClass(isa.ClassLoad).WithRB(isa.R9), ld, 0, false},
		{MatchCodeword(7), isa.Inst{Op: isa.OpCodeword, Imm: 7}, 0, true},
		{MatchCodeword(7), isa.Inst{Op: isa.OpCodeword, Imm: 8}, 0, false},
		{Pattern{}, st, 0, true}, // wildcard
	}
	for i, c := range cases {
		if got := c.p.Matches(c.in, c.pc); got != c.want {
			t.Errorf("case %d: %v.Matches(%v) = %v, want %v", i, c.p, c.in, got, c.want)
		}
	}
}

func TestSpecificityOrdering(t *testing.T) {
	wild := Pattern{}
	byClass := MatchClass(isa.ClassStore)
	byClassReg := MatchClass(isa.ClassStore).WithRB(isa.SP)
	byPC := MatchPC(0x1000)
	if !(wild.Specificity() < byClass.Specificity()) {
		t.Error("class should beat wildcard")
	}
	if !(byClass.Specificity() < byClassReg.Specificity()) {
		t.Error("class+reg should beat class")
	}
	if !(byClassReg.Specificity() < byPC.Specificity()) {
		t.Error("PC should beat class+reg")
	}
}

// TestFigure1Expansion reproduces the paper's Figure 1: every load with
// the stack pointer as base is rewritten to add 8 to its address through
// dr0.
func TestFigure1Expansion(t *testing.T) {
	prod := &Production{
		Name:    "fig1",
		Pattern: MatchClass(isa.ClassLoad).WithRB(isa.SP),
		Replacement: []TemplateInst{
			// addq T.RS1, 8, dr0
			{
				Inst:   isa.Inst{Op: isa.OpAddq, Imm: 8, UseImm: true, RC: isa.DR0, RCSp: isa.DiseSpace},
				RAFrom: FromRB,
			},
			// T.OP T.RD, T.IMM(dr0)
			{
				Inst:           isa.Inst{Op: isa.OpLdq, RB: isa.DR0, RBSp: isa.DiseSpace},
				OpFromTrigger:  true,
				ImmFromTrigger: true,
				RAFrom:         FromRA,
			},
		},
	}
	e := NewEngine(DefaultConfig())
	if err := e.Install(prod); err != nil {
		t.Fatal(err)
	}
	trigger := isa.Inst{Op: isa.OpLdq, RA: isa.R4, RB: isa.SP, Imm: 32}
	exp, ok := e.Expand(trigger, 0x2000)
	if !ok {
		t.Fatal("expected expansion")
	}
	if len(exp.Uops) != 2 {
		t.Fatalf("got %d instructions", len(exp.Uops))
	}
	if got := exp.Uops[0].Inst.String(); got != "addq sp, #8, dr0" {
		t.Errorf("inst 0 = %q", got)
	}
	if got := exp.Uops[1].Inst.String(); got != "ldq r4, 32(dr0)" {
		t.Errorf("inst 1 = %q", got)
	}

	// A load off a different base register must not expand.
	other := isa.Inst{Op: isa.OpLdq, RA: isa.R4, RB: isa.R9, Imm: 32}
	if _, ok := e.Expand(other, 0x2000); ok {
		t.Error("non-sp load should not match")
	}
}

func TestTInstDirective(t *testing.T) {
	trigger := isa.Inst{Op: isa.OpStl, RA: isa.R7, RB: isa.R8, Imm: -12}
	if got := TInst().Instantiate(trigger); got != trigger {
		t.Errorf("T.INST = %v", got)
	}
}

func TestMostSpecificWins(t *testing.T) {
	e := NewEngine(DefaultConfig())
	general := &Production{
		Name:        "all-stores",
		Pattern:     MatchClass(isa.ClassStore),
		Replacement: []TemplateInst{TInst(), TrapT()},
	}
	specific := &Production{
		Name:        "sp-stores",
		Pattern:     MatchClass(isa.ClassStore).WithRB(isa.SP),
		Replacement: []TemplateInst{TInst()},
	}
	// Install in both orders; the more specific must win regardless.
	for _, order := range [][]*Production{{general, specific}, {specific, general}} {
		e.Clear()
		for _, p := range order {
			if err := e.Install(p); err != nil {
				t.Fatal(err)
			}
		}
		spStore := isa.Inst{Op: isa.OpStq, RA: isa.R1, RB: isa.SP}
		exp, ok := e.Expand(spStore, 0)
		if !ok || exp.Prod != specific {
			t.Errorf("sp store matched %v", exp.Prod)
		}
		heapStore := isa.Inst{Op: isa.OpStq, RA: isa.R1, RB: isa.R9}
		exp, ok = e.Expand(heapStore, 0)
		if !ok || exp.Prod != general {
			t.Errorf("heap store matched %v", exp.Prod)
		}
	}
}

func TestPatternTableCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PatternEntries = 2
	e := NewEngine(cfg)
	mk := func(pc uint64) *Production {
		return &Production{Pattern: MatchPC(pc), Replacement: []TemplateInst{TrapT()}}
	}
	if err := e.Install(mk(0x1000)); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(mk(0x2000)); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(mk(0x3000)); err == nil {
		t.Error("want pattern-table-full error")
	}
	if !strings.Contains(e.Productions()[0].String(), "=>") {
		t.Error("production String should render")
	}
}

func TestEmptyReplacementRejected(t *testing.T) {
	e := NewEngine(DefaultConfig())
	if err := e.Install(&Production{Pattern: Pattern{}}); err == nil {
		t.Error("want empty-replacement error")
	}
}

func TestEngineInactive(t *testing.T) {
	e := NewEngine(DefaultConfig())
	p := &Production{Pattern: MatchClass(isa.ClassStore), Replacement: []TemplateInst{TInst()}}
	if err := e.Install(p); err != nil {
		t.Fatal(err)
	}
	e.Active = false
	if _, ok := e.Expand(isa.Inst{Op: isa.OpStq}, 0); ok {
		t.Error("inactive engine must not expand")
	}
	e.Active = true
	if _, ok := e.Expand(isa.Inst{Op: isa.OpStq}, 0); !ok {
		t.Error("re-enabled engine must expand")
	}
}

func TestReplacementTableCapacityMisses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplacementInsts = 4
	cfg.ReplMissPenalty = 10
	e := NewEngine(cfg)
	seq := func(n int) []TemplateInst {
		out := make([]TemplateInst, n)
		for i := range out {
			out[i] = Lit(isa.Nop)
		}
		return out
	}
	a := &Production{Name: "a", Pattern: MatchPC(0x1000), Replacement: seq(3)}
	b := &Production{Name: "b", Pattern: MatchPC(0x2000), Replacement: seq(3)}
	if err := e.Install(a); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(b); err != nil {
		t.Fatal(err)
	}
	nop := isa.Nop
	// First use of a: compulsory miss.
	exp, _ := e.Expand(nop, 0x1000)
	if exp.ExtraLatency != 10 {
		t.Errorf("first use penalty = %d", exp.ExtraLatency)
	}
	// Second use of a: resident.
	exp, _ = e.Expand(nop, 0x1000)
	if exp.ExtraLatency != 0 {
		t.Errorf("resident penalty = %d", exp.ExtraLatency)
	}
	// b does not fit alongside a: evicts a.
	exp, _ = e.Expand(nop, 0x2000)
	if exp.ExtraLatency != 10 {
		t.Errorf("b penalty = %d", exp.ExtraLatency)
	}
	// a misses again.
	exp, _ = e.Expand(nop, 0x1000)
	if exp.ExtraLatency != 10 {
		t.Errorf("a re-miss penalty = %d", exp.ExtraLatency)
	}
	if e.Stats().ReplMisses != 3 {
		t.Errorf("repl misses = %d", e.Stats().ReplMisses)
	}
}

func TestRemoveProduction(t *testing.T) {
	e := NewEngine(DefaultConfig())
	p := &Production{Pattern: MatchClass(isa.ClassStore), Replacement: []TemplateInst{TInst()}}
	if err := e.Install(p); err != nil {
		t.Fatal(err)
	}
	e.Expand(isa.Inst{Op: isa.OpStq}, 0) // make resident
	if !e.Remove(p) {
		t.Error("remove failed")
	}
	if e.Remove(p) {
		t.Error("double remove should fail")
	}
	if _, ok := e.Expand(isa.Inst{Op: isa.OpStq}, 0); ok {
		t.Error("removed production still expands")
	}
}

func TestDBranchTarget(t *testing.T) {
	// `d bne dr1, +1` at DISEPC 4 skips one instruction: next is 5, so the
	// target is 6.
	if got := DBranchTarget(4, 1); got != 6 {
		t.Errorf("target = %d, want 6", got)
	}
	if got := DBranchTarget(4, 0); got != 5 {
		t.Errorf("fallthrough-equivalent target = %d, want 5", got)
	}
}

func TestTemplateConstructors(t *testing.T) {
	// lda dr1, T.IMM(T.RS1) instantiated from `stq r4, 32(r9)` must give
	// `lda dr1, 32(r9)`.
	tm := LdaTImmTRS1(DReg(isa.DR1))
	got := tm.Instantiate(isa.Inst{Op: isa.OpStq, RA: isa.R4, RB: isa.R9, Imm: 32})
	if got.String() != "lda dr1, 32(r9)" {
		t.Errorf("got %q", got.String())
	}
	// bic dr1, 7, dr1
	bic := OpIT(isa.OpBic, DReg(isa.DR1), 7, DReg(isa.DR1))
	if bic.Inst.String() != "bic dr1, #7, dr1" {
		t.Errorf("got %q", bic.Inst.String())
	}
	// cmpeq dr1, dar, dr1
	cmp := Op3T(isa.OpCmpeq, DReg(isa.DR1), DReg(isa.DAR), DReg(isa.DR1))
	if cmp.Inst.String() != "cmpeq dr1, dar, dr1" {
		t.Errorf("got %q", cmp.Inst.String())
	}
	// d_ccall dr1, dhdlr
	cc := DCCallT(DReg(isa.DR1), isa.DHDLR)
	if cc.Inst.String() != "d_ccall dr1, dhdlr" {
		t.Errorf("got %q", cc.Inst.String())
	}
}

// TestExpansionSlotSources covers where each replacement slot comes from:
// a T.INST slot copies the trigger's uop, a literal slot resolves its own
// instruction, and only the trigger-parameterized slot counts in
// Resolved. The memo serves the same sequence, and Remove and Clear make
// a filled memo stale.
func TestExpansionSlotSources(t *testing.T) {
	e := NewEngine(DefaultConfig())
	p := &Production{
		Name:    "mixed",
		Pattern: MatchClass(isa.ClassStore),
		Replacement: []TemplateInst{
			TInst(), // trigger copy: no resolution needed
			Lit(isa.Inst{Op: isa.OpAddq, RA: isa.R1, RB: isa.R2, RC: isa.R3}),                                // literal
			{Inst: isa.Inst{Op: isa.OpAddq, RB: isa.Zero, RC: isa.DR1, RCSp: isa.DiseSpace}, RAFrom: FromRA}, // parameterized
		},
	}
	if err := e.Install(p); err != nil {
		t.Fatal(err)
	}
	trig := isa.Inst{Op: isa.OpStq, RA: isa.R7, RB: isa.SP, Imm: 8}
	exp, ok := e.Expand(trig, 0x1000)
	if !ok {
		t.Fatal("no expansion")
	}
	if len(exp.Uops) != 3 {
		t.Fatalf("expansion length %d, want 3", len(exp.Uops))
	}
	if exp.Resolved != 1 {
		t.Fatalf("Resolved = %d, want 1 (parameterized slot only)", exp.Resolved)
	}
	if exp.Uops[0].Inst != trig {
		t.Fatalf("trigger copy = %v, want %v", exp.Uops[0].Inst, trig)
	}
	if exp.Uops[1] != isa.ResolveUop(p.Replacement[1].Inst) {
		t.Fatal("literal slot not resolved to its template instruction")
	}
	if exp.Uops[2].Inst.RA != isa.R7 {
		t.Fatalf("parameterized slot RA = %v, want trigger's R7", exp.Uops[2].Inst.RA)
	}

	u := isa.ResolveUop(trig)
	var m Memo
	var mexp Expansion
	if ok := e.ExpandMemo(&u, 0x1000, &m, &mexp); !ok || mexp.Prod != p || mexp.Resolved != 1 || !slices.Equal(mexp.Uops, exp.Uops) {
		t.Fatalf("memo expansion = %+v, want %+v", mexp, exp)
	}
	if !e.Remove(p) {
		t.Fatal("Remove failed")
	}
	if e.ReexpandMemo(&u, 0x1000, &m, &mexp) {
		t.Fatal("memo still expands after Remove")
	}
	if err := e.Install(p); err != nil {
		t.Fatal(err)
	}
	if !e.ReexpandMemo(&u, 0x1000, &m, &mexp) {
		t.Fatal("memo does not expand after re-Install")
	}
	e.Clear()
	if e.ReexpandMemo(&u, 0x1000, &m, &mexp) {
		t.Fatal("memo still expands after Clear")
	}
}

// TestRestoreStalesMemo covers the snapshot contract: a memo filled
// before a restore is refilled after it, and answers like the restored
// table.
func TestRestoreStalesMemo(t *testing.T) {
	e := NewEngine(DefaultConfig())
	p := &Production{
		Name:        "lit",
		Pattern:     MatchClass(isa.ClassStore),
		Replacement: []TemplateInst{TInst(), Lit(isa.Inst{Op: isa.OpAddq, RA: isa.R1, RC: isa.R2})},
	}
	if err := e.Install(p); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if !e.Remove(p) {
		t.Fatal("Remove failed")
	}
	u := isa.ResolveUop(isa.Inst{Op: isa.OpStq, RA: isa.R3, RB: isa.SP})
	var m Memo
	var exp Expansion
	if e.ReexpandMemo(&u, 0x40, &m, &exp) {
		t.Fatal("memo expands with the production removed")
	}
	e.Restore(st)
	if ok := e.ExpandMemo(&u, 0x40, &m, &exp); !ok || exp.Prod != p || len(exp.Uops) != 2 {
		t.Fatalf("restored memo expansion = %+v, want %q's two slots", exp, p.Name)
	}
}

// TestRestoredEngineIgnoresDonorReinstall covers productions shared
// between engines: a State restored into b installs the donor's
// production pointers, so nothing a then does with them (here, removing
// and re-installing the production that wins a specificity tie) may
// change which production b matches, through Lookup, a memo filled
// before, or Expand.
func TestRestoredEngineIgnoresDonorReinstall(t *testing.T) {
	p1 := &Production{Name: "p1", Pattern: MatchClass(isa.ClassStore), Replacement: []TemplateInst{TInst()}}
	p2 := &Production{Name: "p2", Pattern: MatchClass(isa.ClassStore), Replacement: []TemplateInst{TInst(), TInst()}}
	a := NewEngine(DefaultConfig())
	for _, p := range []*Production{p1, p2} {
		if err := a.Install(p); err != nil {
			t.Fatal(err)
		}
	}
	b := NewEngine(DefaultConfig())
	b.Restore(a.Snapshot())

	st := isa.Inst{Op: isa.OpStq, RA: isa.R3, RB: isa.SP}
	u := isa.ResolveUop(st)
	var m Memo
	check := func(when string) {
		t.Helper()
		if p, _ := b.Lookup(st, 0x40); p != p1 {
			t.Errorf("%s: Lookup does not match p1", when)
		}
		var exp Expansion
		if !b.ExpandMemo(&u, 0x40, &m, &exp) || exp.Prod != p1 {
			t.Errorf("%s: ExpandMemo does not expand p1", when)
		}
		if exp, _ := b.Expand(st, 0x40); exp.Prod != p1 {
			t.Errorf("%s: Expand does not expand p1", when)
		}
	}
	check("after restore")
	if !a.Remove(p1) {
		t.Fatal("Remove failed")
	}
	if err := a.Install(p1); err != nil {
		t.Fatal(err)
	}
	if p, _ := a.Lookup(st, 0x40); p != p2 {
		t.Fatal("donor does not match p2, now its first-installed store production")
	}
	check("after the donor re-installed p1")
}
