package dise

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

// Lookup returns the most specific matching production, if any, without
// touching the replacement table. Ties break toward the earliest
// installed.
func (e *Engine) Lookup(inst isa.Inst, pc uint64) (*Production, bool) {
	e.stats.Lookups++
	i, scanned := e.matchBest(inst, pc)
	e.stats.PatternsScanned += uint64(scanned)
	if i < 0 {
		return nil, false
	}
	return e.prods[i], true
}

// Expand applies the most specific matching production to inst at pc. The
// boolean result is false if the engine is inactive or nothing matches.
// It scans the pattern table and instantiates on every call: the
// unmemoized reference that ExpandMemo must answer exactly like.
func (e *Engine) Expand(inst isa.Inst, pc uint64) (Expansion, bool) {
	if !e.Armed() {
		return Expansion{}, false
	}
	p, ok := e.Lookup(inst, pc)
	if !ok {
		return Expansion{}, false
	}
	penalty := e.touchReplacement(slices.Index(e.prods, p))
	trigger := isa.ResolveUop(inst)
	uops, resolved := instantiate(p, &trigger)
	e.stats.Expansions++
	e.stats.InstsInserted += uint64(len(uops))
	return Expansion{Prod: p, Uops: uops, ExtraLatency: penalty, Resolved: resolved}, true
}

// Reexpand re-instantiates the matching production without touching
// statistics or the replacement table: the unmemoized reference for
// ReexpandMemo.
func (e *Engine) Reexpand(inst isa.Inst, pc uint64) (Expansion, bool) {
	i, _ := e.matchBest(inst, pc)
	if i < 0 {
		return Expansion{}, false
	}
	trigger := isa.ResolveUop(inst)
	uops, resolved := instantiate(e.prods[i], &trigger)
	return Expansion{Prod: e.prods[i], Uops: uops, Resolved: resolved}, true
}

// memoSlots are the static instructions the memo property test fetches:
// a handful of PCs, each holding an instruction word the test may
// rewrite, with one memo per slot as the predecoder keeps one per page
// slot.
const memoSlots = 6

func memoPC(k int) uint64 { return 0x4000 + 4*uint64(k) }

// randSlotInst draws the instruction at a slot from a small vocabulary,
// so class, op, register and codeword patterns all match now and then.
func randSlotInst(r *rand.Rand) isa.Inst {
	regs := []isa.Reg{isa.R1, isa.R2, isa.SP}
	in := isa.Inst{RA: regs[r.Intn(len(regs))], RB: regs[r.Intn(len(regs))], Imm: int64(r.Intn(4) * 8)}
	switch r.Intn(6) {
	case 0:
		in.Op = isa.OpStq
	case 1:
		in.Op = isa.OpStb
	case 2:
		in.Op = isa.OpLdq
	case 3:
		in.Op, in.RC = isa.OpAddq, isa.R3
	case 4:
		in = isa.Inst{Op: isa.OpCodeword, Imm: int64(r.Intn(2))}
	default:
		in = isa.Nop
	}
	return in
}

// randProduction draws a production whose pattern takes one of the
// shapes a lookup tells apart (class, op, PC, register-only, codeword) and
// whose replacement mixes literal, T.INST and parameterized templates.
func randProduction(r *rand.Rand, name string) *Production {
	var pat Pattern
	switch r.Intn(6) {
	case 0:
		pat = MatchClass([]isa.Class{isa.ClassStore, isa.ClassLoad, isa.ClassIntALU}[r.Intn(3)])
	case 1:
		pat = MatchOp([]isa.Op{isa.OpStq, isa.OpAddq}[r.Intn(2)])
	case 2:
		pat = MatchPC(memoPC(r.Intn(memoSlots)))
	case 3:
		pat = Pattern{}.WithRB([]isa.Reg{isa.R1, isa.SP}[r.Intn(2)])
	case 4:
		pat = MatchClass(isa.ClassStore).WithRB(isa.SP)
	default:
		pat = MatchCodeword(int64(r.Intn(2)))
	}
	repl := make([]TemplateInst, 1+r.Intn(4))
	for i := range repl {
		switch r.Intn(4) {
		case 0:
			repl[i] = TInst()
		case 1:
			repl[i] = Lit(isa.Inst{Op: isa.OpAddq, RA: isa.R1, RB: isa.R2, RC: isa.R3})
		case 2:
			repl[i] = LdaTImmTRS1(DReg(isa.DR1))
		default:
			repl[i] = TemplateInst{Inst: isa.Inst{Op: isa.OpAddq, RB: isa.Zero, RC: isa.DR2, RCSp: isa.DiseSpace},
				RAFrom: FromRA, OpFromTrigger: r.Intn(2) == 0}
		}
	}
	return &Production{Name: name, Pattern: pat, Replacement: repl}
}

// TestMemoMatchesExpand drives two engines through the same random
// sequence of installs, removes, clears, resets, snapshot restores,
// Active toggles and slot rewrites: one expands through per-slot memos
// as the pipeline does, the other through the unmemoized Expand and
// Reexpand. After every step the expansions (production, uops, refill
// penalty, resolved count), the statistics and the snapshot encodings
// (residency included) must be identical, and no expansion handed out
// earlier may have changed under a later refill.
func TestMemoMatchesExpand(t *testing.T) {
	cfg := Config{PatternEntries: 6, ReplacementInsts: 8, ReplMissPenalty: 24}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		memoed, ref := NewEngine(cfg), NewEngine(cfg)
		var pool, twins []*Production // pool[i] installs in memoed, twins[i] in ref
		for i := 0; i < 10; i++ {
			p := randProduction(r, string(rune('a'+i)))
			q := *p
			pool, twins = append(pool, p), append(twins, &q)
		}
		twin := func(p *Production) *Production {
			if i := slices.Index(pool, p); i >= 0 {
				return twins[i]
			}
			return nil
		}
		var insts [memoSlots]isa.Inst
		for k := range insts {
			insts[k] = randSlotInst(r)
		}
		var memos [memoSlots]Memo
		var stMemoed, stRef *State
		var held, heldCopy []isa.Uop

		for step := 0; step < 300; step++ {
			k := r.Intn(memoSlots)
			switch op := r.Intn(20); {
			case op == 0:
				i := r.Intn(len(pool))
				if !slices.Contains(memoed.Productions(), pool[i]) {
					errM, errR := memoed.Install(pool[i]), ref.Install(twins[i])
					if (errM == nil) != (errR == nil) {
						t.Fatalf("seed %d step %d: Install errors differ: %v vs %v", seed, step, errM, errR)
					}
				}
			case op == 1:
				i := r.Intn(len(pool))
				if memoed.Remove(pool[i]) != ref.Remove(twins[i]) {
					t.Fatalf("seed %d step %d: Remove results differ", seed, step)
				}
			case op == 2 && r.Intn(4) == 0:
				memoed.Clear()
				ref.Clear()
			case op == 3 && r.Intn(4) == 0:
				memoed.Reset()
				ref.Reset()
			case op == 4:
				stMemoed, stRef = memoed.Snapshot(), ref.Snapshot()
			case op == 5 && stMemoed != nil:
				memoed.Restore(stMemoed)
				ref.Restore(stRef)
			case op == 6:
				memoed.Active = !memoed.Active
				ref.Active = memoed.Active
			case op == 7:
				// A rewritten slot drops its memo, as a store to a text
				// page drops the predecoded page and its memos.
				insts[k] = randSlotInst(r)
				memos[k] = Memo{}
			case op == 8:
				trigger := isa.ResolveUop(insts[k])
				var gotExp Expansion
				gotOK := memoed.ReexpandMemo(&trigger, memoPC(k), &memos[k], &gotExp)
				wantExp, wantOK := ref.Reexpand(insts[k], memoPC(k))
				compareExpansions(t, seed, step, "Reexpand", gotExp, gotOK, wantExp, wantOK, twin)
			default:
				trigger := isa.ResolveUop(insts[k])
				var gotExp Expansion
				var gotOK bool
				if memoed.Armed() {
					gotOK = memoed.ExpandMemo(&trigger, memoPC(k), &memos[k], &gotExp)
				}
				wantExp, wantOK := ref.Expand(insts[k], memoPC(k))
				compareExpansions(t, seed, step, "Expand", gotExp, gotOK, wantExp, wantOK, twin)
				if gotOK && r.Intn(4) == 0 {
					held, heldCopy = gotExp.Uops, slices.Clone(gotExp.Uops)
				}
			}
			if memoed.Stats() != ref.Stats() {
				t.Fatalf("seed %d step %d: stats %+v, reference %+v", seed, step, memoed.Stats(), ref.Stats())
			}
			if a, b := memoed.Snapshot().AppendBinary(nil), ref.Snapshot().AppendBinary(nil); !bytes.Equal(a, b) {
				t.Fatalf("seed %d step %d: snapshot encodings differ", seed, step)
			}
			if !slices.Equal(held, heldCopy) {
				t.Fatalf("seed %d step %d: a refill rewrote an expansion handed out earlier", seed, step)
			}
		}
	}
}

func compareExpansions(t *testing.T, seed int64, step int, what string, got Expansion, gotOK bool, want Expansion, wantOK bool, twin func(*Production) *Production) {
	t.Helper()
	if gotOK != wantOK || twin(got.Prod) != want.Prod || got.ExtraLatency != want.ExtraLatency ||
		got.Resolved != want.Resolved || !slices.Equal(got.Uops, want.Uops) {
		t.Fatalf("seed %d step %d: memoized %s = %v %+v, reference %v %+v", seed, step, what, gotOK, got, wantOK, want)
	}
}
