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
// configuration: a 32-entry pattern table and a 512-instruction 2-way
// set-associative replacement table.
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
	// stamp[i] is prods[i]'s replacement-table LRU stamp, 0 while its
	// sequence is not resident. It lives beside prods rather than in the
	// Production because productions are shared across engines (a
	// restored dise.State installs the donor's pointers).
	stamp []uint64
	gen   uint64 // see Memo

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

	// replacement-table residency model, production-granular LRU over
	// stamp.
	replUsed int
	lruClock uint64

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
	e.stamp = append(e.stamp, 0)
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
	if e.stamp[i] != 0 {
		e.replUsed -= len(p.Replacement)
	}
	e.prods = append(e.prods[:i], e.prods[i+1:]...)
	e.stamp = append(e.stamp[:i], e.stamp[i+1:]...)
	return true
}

// Clear removes all productions.
func (e *Engine) Clear() {
	e.gen++
	e.prods = nil
	e.stamp = nil
	e.replUsed = 0
}

// Reset returns the engine to its post-NewEngine state: no productions,
// expansion enabled, DISE registers and the pending call link zeroed, the
// replacement-table LRU clock rewound, and statistics cleared. A
// recycled engine behaves bit-identically to a fresh one; only the
// generation keeps counting, so memos filled before the reset are stale
// after it.
func (e *Engine) Reset() {
	e.Clear()
	e.Active = true
	e.Regs = [isa.NumDiseRegs]uint64{}
	e.DLinkPC, e.DLinkDPC = 0, 0
	e.lruClock = 0
	e.stats = Stats{}
}

// Productions returns the installed productions (shared slice; callers
// must not mutate).
func (e *Engine) Productions() []*Production { return e.prods }

// Expansion is the result of expanding one trigger instruction.
type Expansion struct {
	Prod *Production
	// Uops are the instantiated micro-ops; DISEPC k executes Uops[k-1].
	// From ExpandMemo and ReexpandMemo they alias the memo's sequence,
	// which is never written after the fill, so an expansion stays valid
	// however the memo is refilled later.
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
// statistics or the replacement table. The pipeline does this when fetch
// resumes mid-sequence — after a DISE call returns to ⟨PC:DISEPC⟩ — and
// the engine must rebuild the expansion of the instruction at PC (paper
// §3: "the DISE engine ... begins expanding the instruction at
// newDISEPC"). Like Expand, it is the unmemoized reference for
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

// ExpandMemo is Expand for the trigger uop at pc through its memo m,
// refilled first if the generation has moved. Only the stateful part runs
// per call — the lookup counters, and on a match the replacement-table
// touch and the expansion counters — so statistics, residency and the
// expansion are exactly Expand's. On a match it fills *exp and reports
// true; otherwise it leaves *exp alone. (An Expansion result would be
// spilled and copied on every fetch, match or not.)
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

// ReexpandMemo is Reexpand through the memo m of the trigger at pc,
// filling *exp like ExpandMemo.
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

// touchReplacement models replacement-table capacity for prods[i]: if its
// sequence is not resident, evict LRU productions until it fits and
// charge the refill penalty. Stamps are distinct (the clock advances on
// every touch), so the LRU victim is unique.
func (e *Engine) touchReplacement(i int) int {
	e.lruClock++
	if e.stamp[i] != 0 {
		e.stamp[i] = e.lruClock
		return 0
	}
	e.stats.ReplMisses++
	need := len(e.prods[i].Replacement)
	if need > e.cfg.ReplacementInsts {
		// Degenerate: sequence larger than the table; always misses.
		return e.cfg.ReplMissPenalty
	}
	for e.replUsed+need > e.cfg.ReplacementInsts {
		victim := -1
		for j, at := range e.stamp {
			if at != 0 && (victim < 0 || at < e.stamp[victim]) {
				victim = j
			}
		}
		e.stamp[victim] = 0
		e.replUsed -= len(e.prods[victim].Replacement)
	}
	e.stamp[i] = e.lruClock
	e.replUsed += need
	return e.cfg.ReplMissPenalty
}

// DBranchTarget computes the DISEPC a taken DISE branch at disepc jumps
// to: skip instructions are jumped over relative to the next slot.
func DBranchTarget(disepc int, skip int64) int { return disepc + 1 + int(skip) }
