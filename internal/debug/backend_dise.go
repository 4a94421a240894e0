package debug

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// DISE register allocation used by the generated productions. DR1 carries
// the store's (quad-aligned) address into the debugger-generated function;
// DR2/DR3 are sequence temporaries the function may also use as stash
// space (their values are dead once the conditional call issues). A row
// with several meanings serves set-ups that never coexist: one single
// watchpoint of one kind, or a serial multi-watchpoint set.
//
//	dr0        data-region base (conditional-breakpoint slots)
//	dr1..dr3   temporaries
//	dr4..dr7   serially matched watched addresses 2..5
//	dar (dr8)  watched address 1 / Bloom array base / range low bound
//	dpv (dr9)  previous expression value (inline variants)
//	dhdlr      debugger-generated function address
//	dseg       protection segment base >> 11
//	dr12       range high bound / indirect pointer quad / serial address 6
//	dr13       protection error handler
//	dr14       inline-variant condition constant / serial address 7
//	dr15       serial-overflow address table base
const (
	drData = isa.DR0
	drT1   = isa.DR1
	drT2   = isa.DR2
	drT3   = isa.DR3
	drAux  = isa.DR12
	drErrH = isa.DR13
	drCond = isa.DR14
	// The engine keeps the DISE-call link in dedicated state, not in the
	// register file, so dr15 is free to hold the overflow table base.
	drTab = isa.DLINK
)

var serialAddrRegs = []isa.Reg{isa.DAR, isa.DR4, isa.DR5, isa.DR6, isa.DR7, isa.DR12, isa.DR14}

// breakTrap is the code of the traps breakpoint productions raise, which
// tells them from a watch trap that an inline variant folds into the same
// production (both trap at the breakpoint's PC).
const breakTrap = 1

// bloomBytes is the Bloom filter array size (§4.2: 2KB).
const bloomBytes = 2048

// diseState is the installed DISE backend's plan of its generated code,
// fixed by planDise before any template is built: the data-region layout
// and the watched quads, then where the data and code landed. The
// templates, the generated function and seedDiseRegs only read it.
type diseState struct {
	// quads are the watched quad addresses, in watchpoint order.
	quads []uint64
	// Data-region offsets. slotOf is each watchpoint's current-value slot
	// (scalars) or region copy (ranges); condSlot holds each conditional
	// watchpoint's comparison constant (64-bit, so it cannot be
	// materialized inline); breakSlot is each conditional breakpoint's
	// {condition address, constant} pair.
	slotOf    map[*Watchpoint]uint64
	condSlot  map[*Watchpoint]uint64
	breakSlot map[*Breakpoint]uint64
	serialTab uint64 // serial-overflow address table (0 = none)
	bloomOff  uint64 // Bloom array, when bloomSet is not nil
	bloomBits bool
	bloomSet  map[uint64]bool // hashes set, for false-positive accounting

	dataBase    uint64
	dataLen     int
	handlerBase uint64
	errBase     uint64
	errEnd      uint64
	prods       []*dise.Production
}

// installDise implements the paper's proposal (§4): generate productions
// that expand every store with an address check, append the
// expression-evaluation function and data region to the application, and
// install everything into the DISE engine. No per-store debugger hook is
// installed — that is the point.
func (d *Debugger) installDise() error {
	if err := d.checkDiseFeasible(); err != nil {
		return err
	}

	// 1. Plan and append the debugger data region.
	st, data := d.planDise()
	d.dise = st
	st.dataBase = d.m.AppendData(data)
	st.dataLen = len(data)

	// 2. Generate and append the expression-evaluation function and, if
	// protection is on, the error handler.
	if d.needHandler() {
		code, err := d.buildHandler(st)
		if err != nil {
			return err
		}
		st.handlerBase = d.m.AppendText(code)
	}
	if d.opts.Protect {
		code := buildErrHandler()
		st.errBase = d.m.AppendText(code)
		st.errEnd = st.errBase + uint64(len(code))*4
	}

	// 3. Seed the DISE registers, then generate and install productions.
	d.seedDiseRegs(st)
	if err := d.buildProductions(st); err != nil {
		return err
	}
	for _, p := range st.prods {
		if err := d.m.Engine.Install(p); err != nil {
			return err
		}
	}

	// 4. Classify traps raised by the generated code.
	d.m.Core.Hooks.OnTrap = d.trapHook

	// 5. Bloom strategies: a statistics-only store hook counts false
	// positives (it always returns 0 cycles and exists only for the
	// experiment reports).
	if st.bloomSet != nil {
		d.m.Core.Hooks.OnStore = func(ev pipeline.StoreEvent) uint64 {
			// The application's own store executes as T.INST inside the
			// expansion (DisePC > 0); stores with DisePC 0 and InDise set
			// come from the generated function and are not probed.
			if ev.InDise && ev.DisePC == 0 {
				return 0
			}
			if st.bloomSet[d.bloomHash(ev.Addr)] && !d.anyWatchQuadHit(ev.Addr, ev.Size) {
				d.stats.BloomFalsePositives++
			}
			return 0
		}
	}
	return nil
}

// checkDiseFeasible validates option/watchpoint combinations.
func (d *Debugger) checkDiseFeasible() error {
	if d.opts.Variant != VariantMatchAddrEval {
		if len(d.watchpoints) > 1 {
			return fmt.Errorf("debug: %v supports a single watchpoint", d.opts.Variant)
		}
		if d.opts.Multi != StrategySerial {
			return fmt.Errorf("debug: %v matches one address in dar, which %v needs for its array", d.opts.Variant, d.opts.Multi)
		}
		for _, w := range d.watchpoints {
			if w.Kind != WatchScalar && w.Kind != WatchIndirect {
				return fmt.Errorf("debug: %v cannot watch %v", d.opts.Variant, w.Kind)
			}
			if d.opts.Variant == VariantMatchAddrValue {
				if w.Kind != WatchScalar || w.Size != 8 {
					return fmt.Errorf("debug: %v requires a same-size (quad) scalar", d.opts.Variant)
				}
				if w.Addr%8 != 0 {
					return fmt.Errorf("debug: %v requires a quad-aligned scalar", d.opts.Variant)
				}
			}
		}
	}
	if len(d.watchpoints) > 1 {
		for _, w := range d.watchpoints {
			if w.Kind == WatchIndirect || w.Kind == WatchRange {
				return fmt.Errorf("debug: multi-watchpoint sets support scalars and expressions only; split %q into its own session", w.Name)
			}
		}
	}
	if d.opts.Multi != StrategySerial {
		for _, w := range d.watchpoints {
			if w.Kind == WatchIndirect {
				return fmt.Errorf("debug: Bloom strategies cannot track moving indirect targets (%q)", w.Name)
			}
		}
	}
	return nil
}

// needHandler reports whether the configuration calls the generated
// function (the inline variants do not).
func (d *Debugger) needHandler() bool {
	return len(d.watchpoints) > 0 && d.opts.Variant == VariantMatchAddrEval
}

// Data-region layout:
//
//	0x00   register save area (8 quads)
//	0x40+  per conditional breakpoint: condition address, constant (16)
//	 ...   per scalar/indirect/expr watchpoint: current expression value (8)
//	 ...   per range watchpoint: region copy (length, 8-aligned)
//	       each followed, when conditional, by its condition constant (8)
//	 ...   serial-overflow table: watched quad addresses (8 each)
//	 ...   Bloom array (bloomBytes)
const saveArea = 0x00

// planDise lays out the data region and returns the plan with its image.
func (d *Debugger) planDise() (*diseState, []byte) {
	st := &diseState{
		quads:     d.watchQuads(),
		slotOf:    make(map[*Watchpoint]uint64),
		condSlot:  make(map[*Watchpoint]uint64),
		breakSlot: make(map[*Breakpoint]uint64),
	}
	buf := make([]byte, 64) // save area
	put := func(vs ...uint64) uint64 {
		off := uint64(len(buf))
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		return off
	}
	for _, b := range d.breakpoints {
		if b.Cond != nil {
			st.breakSlot[b] = put(b.Cond.Addr, b.Cond.Value)
		}
	}
	for _, w := range d.watchpoints {
		if w.Kind == WatchRange {
			st.slotOf[w] = uint64(len(buf))
			buf = append(buf, d.m.Mem.ReadBytes(w.Addr, int((w.Length+7)&^7))...)
		} else {
			st.slotOf[w] = put(d.evalExpr(w))
		}
		if w.Cond != nil {
			st.condSlot[w] = put(w.Cond.Value)
		}
	}
	if d.opts.Multi == StrategySerial && len(st.quads) > len(serialAddrRegs) {
		st.serialTab = put(st.quads[len(serialAddrRegs):]...)
	}
	if d.opts.Multi == StrategyBloomByte || d.opts.Multi == StrategyBloomBit {
		st.bloomBits = d.opts.Multi == StrategyBloomBit
		st.bloomSet = make(map[uint64]bool)
		arr := make([]byte, bloomBytes)
		for _, q := range st.quads {
			h := d.bloomHashWith(q, st.bloomBits)
			st.bloomSet[h] = true
			if st.bloomBits {
				arr[h>>3] |= 1 << (h & 7)
			} else {
				arr[h] = 1
			}
		}
		st.bloomOff = uint64(len(buf))
		buf = append(buf, arr...)
	}
	return st, buf
}

// watchQuads returns the quad-aligned addresses the address-match stage
// must recognize, across all watchpoints.
func (d *Debugger) watchQuads() []uint64 {
	var out []uint64
	seen := map[uint64]bool{}
	for _, w := range d.watchpoints {
		for _, q := range d.quadsOf(w) {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	return out
}

func (d *Debugger) bloomHashWith(addr uint64, bits bool) uint64 {
	if bits {
		return (addr >> 3) & (bloomBytes*8 - 1)
	}
	return (addr >> 3) & (bloomBytes - 1)
}

func (d *Debugger) bloomHash(addr uint64) uint64 {
	return d.bloomHashWith(addr, d.dise.bloomBits)
}

func (d *Debugger) anyWatchQuadHit(addr uint64, size int) bool {
	for _, w := range d.watchpoints {
		for _, r := range d.watchedRanges(w) {
			if rangesOverlap(addr&^7, (addr+uint64(size)+7)&^7, r[0]&^7, (r[1]+7)&^7) {
				return true
			}
		}
	}
	return false
}

// seedDiseRegs writes the DISE register file from the plan, once the data
// region and the generated code have landed. It is the only install-time
// writer of the registers.
func (d *Debugger) seedDiseRegs(st *diseState) {
	regs := &d.m.Engine.Regs
	if st.handlerBase != 0 {
		regs[isa.DHDLR] = st.handlerBase
	}
	if st.errBase != 0 {
		regs[drErrH] = st.errBase
		regs[isa.DSEG] = st.dataBase >> 11
	}
	if len(st.breakSlot) > 0 {
		regs[drData] = st.dataBase
	}
	var single *Watchpoint
	if len(d.watchpoints) == 1 {
		single = d.watchpoints[0]
	}
	switch {
	case st.bloomSet != nil:
		regs[isa.DAR] = st.dataBase + st.bloomOff
		return
	case single != nil && single.Kind == WatchIndirect:
		p := d.m.Mem.Read(single.Addr, 8)
		regs[isa.DAR] = p &^ 7         // current target quad
		regs[drAux] = single.Addr &^ 7 // the pointer variable's quad
		if d.opts.Variant == VariantEvalExpr {
			// The inline variant dereferences through drAux, which
			// therefore holds the exact pointer address.
			regs[drAux] = single.Addr
		}
	case single != nil && single.Kind == WatchRange:
		regs[isa.DAR] = single.Addr
		regs[drAux] = single.Addr + single.Length
	default:
		// Serial: first addresses in registers, the rest in the table.
		for i, q := range st.quads[:min(len(st.quads), len(serialAddrRegs))] {
			regs[serialAddrRegs[i]] = q
		}
		if st.serialTab != 0 {
			regs[drTab] = st.dataBase + st.serialTab
		}
	}
	if single != nil && (single.Kind == WatchScalar || single.Kind == WatchIndirect) {
		regs[isa.DPV] = d.evalExpr(single)
	}
	if single != nil && single.Cond != nil && d.opts.Variant != VariantMatchAddrEval {
		regs[drCond] = single.Cond.Value
	}
}

// --- production generation -------------------------------------------------

// buildProductions generates the store-watch productions plus breakpoint
// productions, in that order.
func (d *Debugger) buildProductions(st *diseState) error {
	var seq []dise.TemplateInst
	if len(d.watchpoints) > 0 {
		var err error
		if seq, err = d.storeSequence(st, true); err != nil {
			return err
		}
		st.prods = append(st.prods, &dise.Production{
			Name:        "watch-stores",
			Pattern:     dise.MatchClass(isa.ClassStore),
			Replacement: seq,
		})
		// When every watched quad is aligned, quad stores need no
		// alignment fix-up: a more specific stq production drops the bic,
		// giving the paper's "three or four instructions (depending on
		// the data sizes)" distinction.
		if d.quadAlignedWatches() {
			if seqQ, err := d.storeSequence(st, false); err == nil && len(seqQ) < len(seq) {
				st.prods = append(st.prods, &dise.Production{
					Name:        "watch-stores-quad",
					Pattern:     dise.MatchOp(isa.OpStq),
					Replacement: seqQ,
				})
			}
		}
	}
	for _, b := range d.breakpoints {
		p := d.breakProduction(st, b)
		// A breakpoint's PC pattern is more specific than the watch-stores
		// class pattern and overrides it, so on a store it would let that
		// one store escape watching: its production runs the watch
		// sequence in place of its closing T.INST.
		if seq != nil && isa.Decode(uint32(d.m.Mem.Read(b.PC, 4))).Op.IsStore() {
			p.Replacement = append(p.Replacement[:len(p.Replacement)-1], seq...)
		}
		st.prods = append(st.prods, p)
	}
	return nil
}

// quadAlignedWatches reports whether every watched range is quad-aligned
// and quad-sized, so that stq addresses can be compared without masking.
func (d *Debugger) quadAlignedWatches() bool {
	for _, w := range d.watchpoints {
		for _, r := range d.watchedRanges(w) {
			if r[0]%8 != 0 || (r[1]-r[0])%8 != 0 {
				return false
			}
		}
	}
	return true
}

// storeSequence builds the replacement sequence applied to every store.
// withBic includes the address-alignment fix-up needed when store and
// watchpoint sizes can differ (§4.2 "Address match gating").
func (d *Debugger) storeSequence(st *diseState, withBic bool) ([]dise.TemplateInst, error) {
	t1, t2, t3 := dise.DReg(drT1), dise.DReg(drT2), dise.DReg(drT3)
	dar := dise.DReg(isa.DAR)
	dpv := dise.DReg(isa.DPV)
	aux := dise.DReg(drAux)
	zero := dise.AReg(isa.Zero)

	var seq []dise.TemplateInst
	seq = append(seq, dise.TInst())
	seq = append(seq, dise.LdaTImmTRS1(t1)) // dr1 = store effective address

	// Protection check first (Figure 2f): dr2 = (addr>>11) - dseg; call
	// the error handler when the store lands inside the debugger segment.
	if d.opts.Protect {
		nChunks := int64((uint64(st.dataLen) + 2047) / 2048)
		if nChunks > 255 {
			return nil, fmt.Errorf("debug: protected region too large (%d bytes)", st.dataLen)
		}
		seq = append(seq,
			dise.OpIT(isa.OpSrl, t1, 11, t2),
			dise.Op3T(isa.OpSubq, t2, dise.DReg(isa.DSEG), t2),
			dise.OpIT(isa.OpCmpult, t2, nChunks, t2),
		)
		seq = append(seq, d.condCallOrBranch(t2, drErrH)...)
	}

	switch d.opts.Variant {
	case VariantEvalExpr:
		// Figures 2a/2b: load the watched expression, compare with the
		// previous value, trap on change.
		w := d.watchpoints[0]
		ldop := loadOpForSize(w.Size)
		if w.Kind == WatchIndirect {
			// Load the pointer, then the target.
			seq = append(seq,
				dise.MemT(isa.OpLdq, t2, 0, aux), // t2 = p
				dise.MemT(ldop, t2, 0, t2),       // t2 = *p
			)
		} else {
			// dar holds the quad-aligned address; a sub-quad scalar is
			// reached by displacement.
			seq = append(seq, dise.MemT(ldop, t2, int64(w.Addr)-int64(w.Addr&^7), dar))
		}
		seq = append(seq, dise.Op3T(isa.OpXor, t2, dpv, t2)) // changed?
		seq = append(seq, d.condSeq(w, t2, t3)...)
		seq = append(seq, d.trapOrBranchTrap(t2, 0)...)

	case VariantMatchAddrValue:
		// Figure 7: match address and stored value; no loads, no calls.
		w := d.watchpoints[0]
		seq = append(seq, dise.Op3T(isa.OpCmpeq, t1, dar, t2)) // addr match
		seq = append(seq,
			xorStoredDPV(t3),                      // changed?
			dise.Op3T(isa.OpCmpult, zero, t3, t3), // normalize to 0/1
			dise.Op3T(isa.OpAnd, t2, t3, t2),
		)
		seq = append(seq, d.condSeq(w, t2, t3)...)
		seq = append(seq, d.trapOrBranchTrap(t2, 0)...)

	default: // VariantMatchAddrEval (Figures 2c/2d)
		switch {
		case st.bloomSet != nil:
			seq = append(seq, d.bloomMatch(st, t1, t2, t3)...)
		case len(d.watchpoints) == 1 && d.watchpoints[0].Kind == WatchRange:
			seq = append(seq,
				dise.Op3T(isa.OpCmpule, dar, t1, t2), // lo <= addr
				dise.Op3T(isa.OpCmpult, t1, aux, t3), // addr < hi
				dise.Op3T(isa.OpAnd, t2, t3, t2),
			)
		case len(d.watchpoints) == 1 && d.watchpoints[0].Kind == WatchIndirect:
			if withBic {
				seq = append(seq, dise.OpIT(isa.OpBic, t1, 7, t1))
			}
			seq = append(seq,
				dise.Op3T(isa.OpCmpeq, t1, dar, t2), // target quad
				dise.Op3T(isa.OpCmpeq, t1, aux, t3), // pointer quad
				dise.Op3T(isa.OpBis, t2, t3, t2),
			)
		default:
			// Serial address match over the watched quads.
			if withBic {
				seq = append(seq, dise.OpIT(isa.OpBic, t1, 7, t1))
			}
			for i := range st.quads {
				if i < len(serialAddrRegs) {
					r := dise.DReg(serialAddrRegs[i])
					if i == 0 {
						seq = append(seq, dise.Op3T(isa.OpCmpeq, t1, r, t2))
					} else {
						seq = append(seq,
							dise.Op3T(isa.OpCmpeq, t1, r, t3),
							dise.Op3T(isa.OpBis, t2, t3, t2),
						)
					}
				} else {
					off := int64(i-len(serialAddrRegs)) * 8
					seq = append(seq,
						dise.MemT(isa.OpLdq, t3, off, dise.DReg(drTab)),
						dise.Op3T(isa.OpCmpeq, t1, t3, t3),
						dise.Op3T(isa.OpBis, t2, t3, t2),
					)
				}
			}
		}
		seq = append(seq, d.condCallOrBranch(t2, isa.DHDLR)...)
	}
	return seq, nil
}

// bloomMatch emits the Bloom-filter probe (§4.2, Figure 6).
func (d *Debugger) bloomMatch(st *diseState, t1, t2, t3 isa.RegRef) []dise.TemplateInst {
	dar := dise.DReg(isa.DAR) // Bloom array base
	idxBits := uint(0)
	for n := bloomBytes; n > 1; n >>= 1 {
		idxBits++
	}
	if st.bloomBits {
		idxBits += 3
	}
	mask := int64(64 - idxBits)
	seq := []dise.TemplateInst{
		dise.OpIT(isa.OpSrl, t1, 3, t2),    // quad index
		dise.OpIT(isa.OpSll, t2, mask, t2), // keep low idxBits
		dise.OpIT(isa.OpSrl, t2, mask, t2),
	}
	if st.bloomBits {
		seq = append(seq,
			dise.OpIT(isa.OpSrl, t2, 3, t3), // byte index
			dise.Op3T(isa.OpAddq, t3, dar, t3),
			dise.MemT(isa.OpLdbu, t3, 0, t3),
			dise.OpIT(isa.OpAnd, t2, 7, t2), // bit index
			dise.Op3T(isa.OpSrl, t3, t2, t3),
			dise.OpIT(isa.OpAnd, t3, 1, t2), // t2 = probable match
		)
	} else {
		seq = append(seq,
			dise.Op3T(isa.OpAddq, t2, dar, t2),
			dise.MemT(isa.OpLdbu, t2, 0, t2), // t2 = probable match
		)
	}
	return seq
}

// condSeq emits the inline conditional-predicate check for the inline
// variants: t gets ANDed with (condition holds).
func (d *Debugger) condSeq(w *Watchpoint, t, tmp isa.RegRef) []dise.TemplateInst {
	if w.Cond == nil {
		return nil
	}
	dpv := dise.DReg(isa.DPV)
	zero := dise.AReg(isa.Zero)
	var out []dise.TemplateInst
	// Reconstruct the expression's current value into tmp first (before t
	// is normalized) and make it dpv's value: a change the predicate
	// rejects still becomes the previous value, as on the other back ends.
	switch d.opts.Variant {
	case VariantEvalExpr:
		// t holds cur XOR dpv, so cur = t XOR dpv.
		out = append(out,
			dise.Op3T(isa.OpXor, t, dpv, tmp),
			dise.Op3T(isa.OpBis, tmp, zero, dpv),
		)
	case VariantMatchAddrValue:
		// t is 1 when the store changed the watched quad, whose new value
		// is the trigger's T.RD: dpv ^= (T.RD ^ dpv) * t, then tmp = dpv,
		// the stored value whenever t is 1.
		out = append(out,
			xorStoredDPV(tmp),
			dise.Op3T(isa.OpMulq, tmp, t, tmp),
			dise.Op3T(isa.OpXor, dpv, tmp, dpv),
			dise.Op3T(isa.OpBis, dpv, zero, tmp),
		)
	}
	out = append(out, condTemplate(w.Cond.Op, tmp, dise.DReg(drCond), tmp)...)
	// Normalize the changed indicator and AND in the predicate.
	out = append(out,
		dise.Op3T(isa.OpCmpult, zero, t, t),
		dise.Op3T(isa.OpAnd, t, tmp, t),
	)
	return out
}

// xorStoredDPV builds `xor T.RD, dpv, dst`: the store's data register
// against the previous value.
func xorStoredDPV(dst isa.RegRef) dise.TemplateInst {
	return dise.TemplateInst{
		Inst:   isa.Inst{Op: isa.OpXor, RB: isa.DPV, RBSp: isa.DiseSpace, RC: dst.Reg, RCSp: dst.Space},
		RAFrom: dise.FromRA,
	}
}

// condTemplate emits the predicate test of a replacement sequence: dst
// gets 1 when val op k holds and 0 otherwise.
func condTemplate(op CondOp, val, k, dst isa.RegRef) []dise.TemplateInst {
	switch op {
	case CondEq:
		return []dise.TemplateInst{dise.Op3T(isa.OpCmpeq, val, k, dst)}
	case CondNe:
		return []dise.TemplateInst{
			dise.Op3T(isa.OpCmpeq, val, k, dst),
			dise.OpIT(isa.OpXor, dst, 1, dst),
		}
	case CondLt:
		return []dise.TemplateInst{dise.Op3T(isa.OpCmplt, val, k, dst)}
	case CondGt:
		return []dise.TemplateInst{dise.Op3T(isa.OpCmplt, k, val, dst)}
	}
	return nil
}

// trapOrBranchTrap emits the trap tail, raising a trap with the given
// code: a conditional trap with ISA support, or a DISE branch over an
// unconditional trap without it (Figure 7 top vs bottom).
func (d *Debugger) trapOrBranchTrap(t isa.RegRef, code int64) []dise.TemplateInst {
	if d.opts.CondSupport {
		return []dise.TemplateInst{dise.Lit(isa.Inst{Op: isa.OpCtrap, RA: t.Reg, RASp: t.Space, Imm: code})}
	}
	return []dise.TemplateInst{
		dise.DBranchT(isa.OpDbeq, t, 1), // skip the trap when t == 0
		dise.Lit(isa.Inst{Op: isa.OpTrap, Imm: code}),
	}
}

// condCallOrBranch emits the call tail: d_ccall with ISA support, or a
// DISE branch over an unconditional d_call without it.
func (d *Debugger) condCallOrBranch(t isa.RegRef, target isa.Reg) []dise.TemplateInst {
	if d.opts.CondSupport {
		return []dise.TemplateInst{dise.DCCallT(t, target)}
	}
	return []dise.TemplateInst{
		dise.DBranchT(isa.OpDbeq, t, 1),
		dise.DCallT(target),
	}
}

// breakProduction builds a breakpoint production (§4.1, §4.3).
func (d *Debugger) breakProduction(st *diseState, b *Breakpoint) *dise.Production {
	if b.Cond == nil {
		// Trap, then the original instruction: restarting needs no
		// restore/single-step/re-arm dance (§4.1).
		return &dise.Production{
			Name:        fmt.Sprintf("break@%#x", b.PC),
			Pattern:     dise.MatchPC(b.PC),
			Replacement: []dise.TemplateInst{dise.Lit(isa.Inst{Op: isa.OpTrap, Imm: breakTrap}), dise.TInst()},
		}
	}
	// Conditional breakpoint: evaluate the predicate inline (§4.3). The
	// condition variable's address and constant live in the breakpoint's
	// own slot of the debugger data region.
	t1, t2 := dise.DReg(drT1), dise.DReg(drT2)
	slot, data := int64(st.breakSlot[b]), dise.DReg(drData)
	seq := []dise.TemplateInst{
		dise.MemT(isa.OpLdq, t1, slot, data),   // t1 = condition address
		dise.MemT(isa.OpLdq, t1, 0, t1),        // t1 = condition variable
		dise.MemT(isa.OpLdq, t2, slot+8, data), // t2 = constant
	}
	seq = append(seq, condTemplate(b.Cond.Op, t1, t2, t2)...)
	seq = append(seq, d.trapOrBranchTrap(t2, breakTrap)...)
	seq = append(seq, dise.TInst())
	return &dise.Production{
		Name:        fmt.Sprintf("cbreak@%#x", b.PC),
		Pattern:     dise.MatchPC(b.PC),
		Replacement: seq,
	}
}

func loadOpForSize(size int) isa.Op {
	switch size {
	case 1:
		return isa.OpLdbu
	case 2:
		return isa.OpLdw
	case 4:
		return isa.OpLdl
	default:
		return isa.OpLdq
	}
}
