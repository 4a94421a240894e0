package dise

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Production is a rewriting rule: a pattern and a parameterized
// replacement sequence (paper §3).
type Production struct {
	Name        string
	Pattern     Pattern
	Replacement []TemplateInst
}

func (p *Production) String() string {
	s := p.Pattern.String() + " =>"
	for _, t := range p.Replacement {
		s += "\n    " + t.String()
	}
	return s
}

// Config sizes the DISE engine. The paper's §5 evaluation uses a modest
// configuration: a 32-entry pattern table and a 512-instruction
// replacement table. The replacement table is modelled fully associative
// per production: a production's whole sequence is resident or not, and
// the least recently used sequences make room for a missing one.
type Config struct {
	PatternEntries   int
	ReplacementInsts int // total replacement-table capacity in instructions
	ReplMissPenalty  int // cycles to refill one production's sequence
}

// DefaultConfig matches the paper.
func DefaultConfig() Config {
	return Config{
		PatternEntries:   32,
		ReplacementInsts: 512,
		ReplMissPenalty:  24,
	}
}

// Stats counts engine activity.
type Stats struct {
	Lookups         uint64
	PatternsScanned uint64 // productions examined across all lookups
	Expansions      uint64
	InstsInserted   uint64 // replacement instructions delivered
	ReplMisses      uint64 // replacement-table capacity misses
}

// Engine is the architectural DISE engine: pattern table, replacement
// table, and the private DISE register file. The pipeline consults it
// between fetch and decode.
//
// The pattern table is one slice in install order, and a lookup walks it
// once (see matchBest). The fetch path rarely walks it: the pipeline
// keeps a Memo per static instruction and rescans only when the engine's
// generation has moved since the memo was filled, so the walk runs once
// per static instruction per generation. Install, Remove, Clear, Reset
// and Restore move the generation; it never goes backwards, so no memo
// filled under an earlier installed set can pass for the current one.
type Engine struct {
	cfg   Config
	prods []*Production
	// resident lists the table indexes of the productions whose sequences
	// are in the replacement table, most recently used first. It lives
	// beside prods rather than in the Production because productions are
	// shared across engines (a restored dise.State installs the donor's
	// pointers).
	resident []int
	gen      uint64 // see Memo

	// Active is false while the core executes a DISE-called function;
	// expansion is disabled there to keep replacement sequences
	// self-contained and to prevent bottomless recursion (paper §3).
	Active bool

	// Regs is the DISE register file, accessible only to replacement
	// instructions and, via d_mfr/d_mtr, to DISE-called functions.
	Regs [isa.NumDiseRegs]uint64

	// DLinkPC and DLinkDPC hold the pending DISE-call return point
	// ⟨PC:DISEPC+1⟩.
	DLinkPC  uint64
	DLinkDPC int

	stats Stats
}

// NewEngine returns an empty, enabled engine.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, Active: true}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns engine statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Install adds a production to the pattern table. It fails when the table
// is full — debuggers must then fall back to other mechanisms, the same
// capacity argument the paper makes for hardware watchpoint registers.
func (e *Engine) Install(p *Production) error {
	if len(e.prods) >= e.cfg.PatternEntries {
		return fmt.Errorf("dise: pattern table full (%d entries)", e.cfg.PatternEntries)
	}
	if len(p.Replacement) == 0 {
		return fmt.Errorf("dise: production %q has an empty replacement sequence", p.Name)
	}
	e.gen++
	e.prods = append(e.prods, p)
	return nil
}

// Remove deletes a production by identity; it reports whether it was
// present.
func (e *Engine) Remove(p *Production) bool {
	i := slices.Index(e.prods, p)
	if i < 0 {
		return false
	}
	e.gen++
	e.prods = append(e.prods[:i], e.prods[i+1:]...)
	e.resident = slices.DeleteFunc(e.resident, func(r int) bool { return r == i })
	for k, r := range e.resident {
		if r > i {
			e.resident[k] = r - 1
		}
	}
	return true
}

// Clear removes all productions.
func (e *Engine) Clear() {
	e.gen++
	e.prods = nil
	e.resident = nil
}

// Reset returns the engine to its post-NewEngine state: no productions,
// expansion enabled, DISE registers and the pending call link zeroed, and
// statistics cleared. A recycled engine behaves bit-identically to a
// fresh one; only the generation keeps counting, so memos filled before
// the reset are stale after it.
func (e *Engine) Reset() {
	e.Clear()
	e.Active = true
	e.Regs = [isa.NumDiseRegs]uint64{}
	e.DLinkPC, e.DLinkDPC = 0, 0
	e.stats = Stats{}
}

// Productions returns the installed productions (shared slice; callers
// must not mutate).
func (e *Engine) Productions() []*Production { return e.prods }

// Expansion is the result of expanding one trigger instruction.
type Expansion struct {
	Prod *Production
	// Uops are the instantiated micro-ops; DISEPC k executes Uops[k-1].
	// They alias the memo's sequence, which is never written after the
	// fill, so an expansion stays valid however the memo is refilled
	// later.
	Uops []isa.Uop
	// ExtraLatency is the replacement-table refill penalty, if any.
	ExtraLatency int
	// Resolved counts the trigger-parameterized slots: those an engine
	// without a memo resolves on every expansion. The rest copy the
	// trigger's own uop (T.INST) or are literals. The pipeline folds it
	// into its uop decode-amortization counters once per expansion.
	Resolved int
}

// matchBest returns the table index of the most specific production
// matching inst at pc, or -1 for none, and the number of productions it
// examined. It walks the table once in install order and examines every
// production except those its class key rules out for inst, or, lacking
// a class key, its PC constraint rules out at pc; neither could match.
// Keeping the first production of the highest specificity breaks ties
// toward the earliest installed.
func (e *Engine) matchBest(inst isa.Inst, pc uint64) (best, scanned int) {
	best, bestSpec := -1, -1
	cls := inst.Op.Class()
	for i, p := range e.prods {
		if c, ok := p.Pattern.ClassKey(); ok {
			if c != cls {
				continue
			}
		} else if p.Pattern.PC != nil && *p.Pattern.PC != pc {
			continue
		}
		scanned++
		if s := p.Pattern.Specificity(); s > bestSpec && p.Pattern.Matches(inst, pc) {
			best, bestSpec = i, s
		}
	}
	return best, scanned
}

// instantiate builds p's replacement sequence against the trigger uop in
// fresh storage. T.INST slots copy the trigger's already-resolved uop;
// every other slot resolves its instantiated instruction, and the
// trigger-parameterized ones among them are counted in resolved.
func instantiate(p *Production, trigger *isa.Uop) (uops []isa.Uop, resolved int) {
	uops = make([]isa.Uop, len(p.Replacement))
	for i := range p.Replacement {
		t := &p.Replacement[i]
		if t.UseTrigger {
			uops[i] = *trigger
			continue
		}
		uops[i] = isa.ResolveUop(t.Instantiate(trigger.Inst))
		if t.parameterized() {
			resolved++
		}
	}
	return uops, resolved
}

// Armed reports whether a fetch consults the pattern table at all: the
// engine is active and holds a production. Most simulated machines run
// with none, so the pipeline checks this before it looks up a memo.
func (e *Engine) Armed() bool { return e.Active && len(e.prods) != 0 }

// Memo holds the part of one static instruction's expansion that cannot
// change between fetches: which production the pattern table matches
// (or none), how many productions the scan examined, and the sequence
// instantiated against the trigger. All three depend only on the
// instruction word, its PC and the installed set, so a memo filled under
// the engine's current generation answers every later fetch of that word
// at that PC. The pipeline keeps one per predecoded slot; a store to the
// slot's page drops the page and its memos together. The zero Memo is
// stale for any engine holding a production.
type Memo struct {
	gen      uint64
	uops     []isa.Uop // never written after the fill
	prod     uint32    // 1 + the match's index in the production table; 0 for none
	scanned  uint32
	resolved uint32
}

// fill scans the pattern table for the trigger at pc and records the
// outcome in m under the current generation.
func (e *Engine) fill(m *Memo, trigger *isa.Uop, pc uint64) {
	i, scanned := e.matchBest(trigger.Inst, pc)
	var uops []isa.Uop
	var resolved int
	if i >= 0 {
		uops, resolved = instantiate(e.prods[i], trigger)
	}
	*m = Memo{gen: e.gen, uops: uops, prod: uint32(i + 1), scanned: uint32(scanned), resolved: uint32(resolved)}
}

// ExpandMemo applies the most specific production matching the trigger
// uop at pc, through its memo m, refilled first if the generation has
// moved. Only the stateful part runs per call — the lookup counters, and
// on a match the replacement-table touch and the expansion counters — so
// statistics, residency and the expansion are exactly those of a scan and
// instantiation on every call. It does nothing while the engine is not
// Armed. On a match it fills *exp and reports true; otherwise it leaves
// *exp alone. (An Expansion result would be spilled and copied on every
// fetch, match or not.)
func (e *Engine) ExpandMemo(trigger *isa.Uop, pc uint64, m *Memo, exp *Expansion) bool {
	if !e.Armed() {
		return false
	}
	if m.gen != e.gen {
		e.fill(m, trigger, pc)
	}
	e.stats.Lookups++
	e.stats.PatternsScanned += uint64(m.scanned)
	if m.prod == 0 {
		return false
	}
	i := int(m.prod - 1)
	penalty := e.touchReplacement(i)
	e.stats.Expansions++
	e.stats.InstsInserted += uint64(len(m.uops))
	*exp = Expansion{Prod: e.prods[i], Uops: m.uops, ExtraLatency: penalty, Resolved: int(m.resolved)}
	return true
}

// ReexpandMemo re-instantiates the production matching the trigger at pc
// through its memo m, filling *exp like ExpandMemo but touching neither
// statistics nor the replacement table. The pipeline does this when
// fetch resumes mid-sequence — after a DISE call returns to ⟨PC:DISEPC⟩ —
// and the engine must rebuild the expansion of the instruction at PC
// (paper §3: "the DISE engine ... begins expanding the instruction at
// newDISEPC").
func (e *Engine) ReexpandMemo(trigger *isa.Uop, pc uint64, m *Memo, exp *Expansion) bool {
	if m.gen != e.gen {
		e.fill(m, trigger, pc)
	}
	if m.prod == 0 {
		return false
	}
	*exp = Expansion{Prod: e.prods[m.prod-1], Uops: m.uops, Resolved: int(m.resolved)}
	return true
}

// touchReplacement models replacement-table capacity for prods[i] and
// returns the cycles its expansion waits. A resident sequence moves to
// the front of the recency order. A missing one is charged the refill
// penalty and goes to the front, and the least recently used sequences
// leave from the back until the resident ones fit. A sequence larger
// than the table misses every time and never becomes resident.
func (e *Engine) touchReplacement(i int) int {
	if len(e.resident) != 0 && e.resident[0] == i {
		return 0
	}
	if k := slices.Index(e.resident, i); k > 0 {
		copy(e.resident[1:k+1], e.resident[:k])
		e.resident[0] = i
		return 0
	}
	e.stats.ReplMisses++
	if len(e.prods[i].Replacement) > e.cfg.ReplacementInsts {
		return e.cfg.ReplMissPenalty
	}
	e.resident = slices.Insert(e.resident, 0, i)
	used := 0
	for k, r := range e.resident {
		if used += len(e.prods[r].Replacement); used > e.cfg.ReplacementInsts {
			e.resident = e.resident[:k]
			break
		}
	}
	return e.cfg.ReplMissPenalty
}

// DBranchTarget computes the DISEPC a taken DISE branch at disepc jumps
// to: skip instructions are jumped over relative to the next slot.
func DBranchTarget(disepc int, skip int64) int { return disepc + 1 + int(skip) }
