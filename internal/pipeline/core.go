package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Core is the simulated processor: architectural state plus the timing
// model. Construct one with New, load a program through LoadProgram (in
// internal/machine), and drive it with Run.
//
// Its state comes in three kinds. The plain values are run, which New
// and Reset set from initialRun and Snapshot and Restore copy whole. The
// state that owns memory (port tables, occupancy rings, store-queue
// entries, page protections, the predecoder, the LinearTiming reference
// tables) has its own reset, snapshot and restore code. So does the
// in-flight expansion: exp points at the core's own expBuf, so it never
// rides in a copied value.
//
// The tables every uop's timing touches (the port tables, the occupancy
// rings, the predecoder and the L1I geometry) are held by value, so the
// single timing pass reaches them at fixed offsets from the core rather
// than through a pointer each.
type Core struct {
	cfg    Config
	Mem    *mem.Memory
	Prot   *mem.Protection
	Hier   *cache.Hierarchy
	BP     *bpred.Predictor
	Engine *dise.Engine
	Hooks  Hooks

	// exp points at expBuf while a replacement sequence is in flight and
	// is nil otherwise. The buffer lives in Core so that taking its
	// address does not heap-allocate an Expansion on every step; its
	// Uops alias the trigger slot's memo, which is never written after
	// it is filled. At most one expansion is in flight per core, so
	// reusing one buffer is safe.
	exp    *dise.Expansion
	expBuf dise.Expansion

	// LinearTiming cores book fetch, dispatch, and commit on plain rings
	// (nil otherwise): the reference the run's cursors are checked
	// against.
	fetchRef, dispatchRef, commitRef *booking

	aluBook, mulBook, loadBook booking
	robRing, rsRing, lsqRing   ring

	// linear selects the retained linear-reference timing paths
	// (Config.LinearTiming): fetch, dispatch, and commit booked on the
	// reference rings instead of the cursors, and the store-queue search
	// as a full scan.
	linear bool

	// storeQ holds the in-flight stores; run keeps the queue's head,
	// liveness generation, occupancy and bounds.
	storeQ []storeRec

	// Per-side L1 hit latencies and the L1I line mask, captured at
	// construction: the fetch and load hot paths subtract/charge these
	// every instruction, and reading them through Hier.Config() would copy
	// the whole HierarchyConfig struct each time.
	l1iHitLat uint64
	l1iMask   uint64
	l1dHitLat uint64

	// pred is the predecoded-text cache serving all instruction fetches;
	// it invalidates through the memory write hook.
	pred predecoder

	run
}

// run is the core's plain-value state: everything a core carries from
// one step to the next that owns no memory (the timing pass's tables,
// which do, are Core's value fields). A State embeds it, so a field added
// here is reset, captured and restored with no further code; one that is
// encoded also needs its line in State.AppendBinary.
type run struct {
	// --- front-end / functional state ---
	pc         uint64
	dpc        int // 0: fetch raw instruction at pc; >=1: replay expansion
	inDiseFunc bool
	halted     bool
	stopReq    bool

	// --- timing state ---
	fetchCursor uint64 // earliest cycle the next fetch may happen

	// Fetch, dispatch, and commit requests are non-decreasing by
	// construction (each is clamped by the previous result, kept in
	// lastFetch/lastDispatch/lastCommit), so default cores book them on
	// cursors (LinearTiming cores on Core's reference rings instead).
	fetchBook, dispatchBook, commitBook cursor
	lastFetch, lastDispatch, lastCommit uint64

	// Store-queue lifetime model: entries are live from push until their
	// commit cycle, when the store drains to the D-cache. Liveness is a
	// generation tag (storeQGen) so the whole queue bulk-retires in O(1);
	// the occupancy counter and conservative [storeQLo, storeQHi) address
	// bounds let searchStoreQ answer the common cases — queue empty, or
	// load disjoint from every in-flight store — without scanning.
	storeQHead      int
	storeQGen       uint64 // current liveness generation
	storeQLive      int    // entries carrying the current generation
	storeQLo        uint64 // min addr over live entries (conservative)
	storeQHi        uint64 // max addr+size over live entries (conservative)
	storeQMaxCommit uint64 // latest commit cycle among live entries

	lastFetchLine uint64 // line-granular I$ probing
	mtCursor      uint64 // fetch cursor of the DISE-function thread context

	stats Stats

	// Architectural application register file.
	Regs [isa.NumRegs]uint64

	appReady  [isa.NumRegs]uint64
	diseReady [isa.NumDiseRegs]uint64
}

// initialRun is a new core's run state: fetch may start at cycle 1, the
// store queue's bounds are empty and its first generation is 1, and no
// I-cache line has been probed.
func initialRun(cfg Config) run {
	return run{
		fetchCursor:   1,
		fetchBook:     newCursor(cfg.Width),
		dispatchBook:  newCursor(cfg.Width),
		commitBook:    newCursor(cfg.Width),
		storeQGen:     1,
		storeQLo:      ^uint64(0),
		lastFetchLine: ^uint64(0),
	}
}

// storeRec is one in-flight store. It is live while gen matches the
// core's storeQGen; retirement (lazy, at lookup time) or a bulk
// generation bump marks it dead. After its commit cycle the store has
// drained to the D-cache, so later loads must probe the hierarchy rather
// than forward — forwarding forever from a committed store would bypass
// Hierarchy.DataLatency and understate both latency and miss rates.
type storeRec struct {
	addr     uint64
	size     int
	dataDone uint64
	commit   uint64
	gen      uint64
}

// New builds a core around the given memory system and DISE engine.
func New(cfg Config, m *mem.Memory, hier *cache.Hierarchy, bp *bpred.Predictor, eng *dise.Engine) *Core {
	// The LSQ ring bounds in-flight memory ops to LSQSize, so a store
	// queue of the same size can never overwrite a live entry.
	sqSize := cfg.LSQSize
	if sqSize < 1 {
		sqSize = 1
	}
	hcfg := hier.Config()
	c := &Core{
		cfg:       cfg,
		Mem:       m,
		Prot:      mem.NewProtection(),
		Hier:      hier,
		BP:        bp,
		Engine:    eng,
		linear:    cfg.LinearTiming,
		aluBook:   *newBooking(cfg.IntALUs),
		mulBook:   *newBooking(cfg.IntMuls),
		loadBook:  *newBooking(cfg.LoadPorts),
		robRing:   *newRing(cfg.ROBSize),
		rsRing:    *newRing(cfg.RSSize),
		lsqRing:   *newRing(cfg.LSQSize),
		storeQ:    make([]storeRec, sqSize),
		l1iHitLat: uint64(hcfg.L1I.HitLatency),
		l1iMask:   ^(uint64(hcfg.L1I.LineBytes) - 1),
		l1dHitLat: uint64(hcfg.L1D.HitLatency),
		pred:      *newPredecoder(m, predecodePages),
	}
	c.run = initialRun(cfg)
	if c.linear {
		c.fetchRef = newBooking(cfg.Width)
		c.dispatchRef = newBooking(cfg.Width)
		c.commitRef = newBooking(cfg.Width)
	}
	m.AddWriteHook(c.pred.invalidate)
	return c
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Stats returns run statistics so far, folding in the predecoded-text
// cache counters the predecoder keeps privately. The uop counters
// combine both resolution sites: the predecoder (page fills, misaligned
// fetches, store invalidations) and the DISE expansion path (c.stats
// accumulates those per expansion in step, from the memo's counts).
func (c *Core) Stats() Stats {
	st := c.stats
	st.PredecodeHits = c.pred.hits
	st.PredecodePageDecodes = c.pred.decodes
	st.PredecodeEvictions = c.pred.evictions
	st.PredecodeInvalidations = c.pred.invalidations
	st.UopHits += c.pred.hits
	st.UopResolves += c.pred.resolves
	st.UopInvalidations += c.pred.uopInvals
	return st
}

// Reset returns the core to its post-New state so a pooled machine can be
// recycled: the run state starts over from initialRun, debugger hooks and
// page protections are detached, and the in-flight expansion, timing
// tables and rings, store queue, and predecoded-text cache return to
// their freshly-constructed values. The configuration and the attached
// memory-system objects are kept; callers reset those separately
// (machine.Machine.Reset resets the whole composition).
func (c *Core) Reset() {
	c.run = initialRun(c.cfg)
	c.Hooks = Hooks{}
	c.Prot.Clear()
	c.exp, c.expBuf = nil, dise.Expansion{}
	if c.linear {
		c.fetchRef.reset()
		c.dispatchRef.reset()
		c.commitRef.reset()
	}
	c.aluBook.reset()
	c.mulBook.reset()
	c.loadBook.reset()
	c.robRing.reset()
	c.rsRing.reset()
	c.lsqRing.reset()
	clear(c.storeQ)
	c.pred.reset()
}

// SetPC sets the fetch PC (used by loaders).
func (c *Core) SetPC(pc uint64) { c.pc = pc }

// PC returns the current architectural PC.
func (c *Core) PC() uint64 { return c.pc }

// Halted reports whether the core has executed a halt.
func (c *Core) Halted() bool { return c.halted }

// readReg reads a register in either space.
func (c *Core) readReg(r isa.Reg, sp isa.RegSpace) uint64 {
	if sp == isa.DiseSpace {
		return c.Engine.Regs[r%isa.NumDiseRegs]
	}
	if r == isa.Zero {
		return 0
	}
	return c.Regs[r]
}

// writeReg writes a register in either space.
func (c *Core) writeReg(r isa.Reg, sp isa.RegSpace, v uint64) {
	if sp == isa.DiseSpace {
		c.Engine.Regs[r%isa.NumDiseRegs] = v
		return
	}
	if r != isa.Zero {
		c.Regs[r] = v
	}
}

func (c *Core) readyAt(r isa.Reg, sp isa.RegSpace) uint64 {
	if sp == isa.DiseSpace {
		return c.diseReady[r%isa.NumDiseRegs]
	}
	if r == isa.Zero {
		return 0
	}
	return c.appReady[r]
}

func (c *Core) setReadyAt(r isa.Reg, sp isa.RegSpace, t uint64) {
	if sp == isa.DiseSpace {
		c.diseReady[r%isa.NumDiseRegs] = t
		return
	}
	if r != isa.Zero {
		c.appReady[r] = t
	}
}

// Run executes until halt, the application-instruction budget, or the uop
// safety cap is exhausted, one step per uop. It returns an error only for
// malformed situations (e.g. executing unmapped garbage forever is cut
// off by MaxUops).
func (c *Core) Run(maxAppInsts uint64) error {
	var uops uint64
	for !c.halted {
		if maxAppInsts > 0 && c.stats.AppInsts >= maxAppInsts {
			break
		}
		if uops++; uops > c.cfg.MaxUops {
			return fmt.Errorf("pipeline: uop budget exhausted at pc=%#x", c.pc)
		}
		c.step()
		if c.stopReq {
			c.stopReq = false
			break
		}
	}
	c.stats.Cycles = c.lastCommit
	return nil
}

// RequestStop makes Run return after the current instruction completes.
// Session front ends call it from a hook to pause at a user transition;
// calling Run again resumes from the same architectural state.
func (c *Core) RequestStop() { c.stopReq = true }

// step fetches, functionally executes, and times exactly one uop, in
// one pass each: the uop comes pre-resolved from the predecoded page or
// the slot's DISE expansion memo, so nothing here re-derives
// per-instruction facts; exec runs it, and time books it from fetch
// through commit and advances the front end.
func (c *Core) step() {
	pc, dpc := c.pc, c.dpc
	var u *isa.Uop
	expExtra := 0
	inFunc := c.inDiseFunc // captured before exec can change it
	inDise := dpc > 0 || inFunc

	if dpc == 0 {
		var pg *decodedPage
		u, pg = c.pred.fetch(pc)
		if c.Engine.Armed() && c.Engine.ExpandMemo(u, pc, c.pred.memo(pg, pc), &c.expBuf) {
			exp := &c.expBuf
			c.exp = exp
			// The counters read as if the unmemoized engine had resolved
			// the parameterized slots for this expansion.
			c.stats.Expansions++
			c.stats.UopResolves += uint64(exp.Resolved)
			c.stats.UopHits += uint64(len(exp.Uops) - exp.Resolved)
			expExtra = exp.ExtraLatency
			dpc = 1
			c.dpc = 1
			u = &exp.Uops[0]
			inDise = true
		}
	} else {
		u = &c.exp.Uops[dpc-1]
	}

	var ev execResult
	c.exec(u, pc, dpc, inDise, &ev)
	c.time(u, &ev, uint64(expExtra), inDise, inFunc, pc, dpc)
}

// execResult carries what exec decided that the uop's timing needs.
// Whether the uop loads, stores or multiplies, and its access size, time
// reads from the uop itself (Flags, MemSize).
type execResult struct {
	flags     uint8  // ev* bits
	addr      uint64 // effective address of a load or store
	nextPC    uint64 // redirect target
	nextDPC   int
	trapStall uint64 // debugger-transition stall charged at commit
}

// execResult flag bits.
const (
	evRedirect   uint8 = 1 << iota // conventional taken control flow
	evMispredict                   // the predictor missed: fetch waits for resolution
	evDiseFlush                    // d-branch taken, d_call, d_ccall taken, d_ret
	evMTCall                       // flush suppressed by the multithreading optimization
	evTrapped                      // a debugger hook took the uop
	evHalted
)

// exec functionally executes the uop, updating architectural state,
// calling debugger hooks, and deciding control flow. The result is
// written into the caller's ev (passed in to keep the per-uop struct off
// the copy path). The execution class and memory size come pre-resolved
// from the uop; the opcode-level switches below still read u.Inst.
func (c *Core) exec(u *isa.Uop, pc uint64, dpc int, inDise bool, ev *execResult) {
	if c.Hooks.OnInst != nil && dpc == 0 && !c.inDiseFunc {
		ev.trapStall += c.Hooks.OnInst(pc)
		if ev.trapStall > 0 {
			ev.flags |= evTrapped
		}
	}

	inst := &u.Inst
	switch u.Class {
	case isa.ClassNop:
		// includes unmatched codewords

	case isa.ClassHalt:
		ev.flags |= evHalted

	case isa.ClassIntALU, isa.ClassIntMul:
		c.execALU(inst)

	case isa.ClassLoad:
		base := c.readReg(inst.RB, inst.RBSp)
		addr := isa.EffAddr(base, inst.Imm)
		v := isa.SignExtendLoad(inst.Op, c.Mem.Read(addr, int(u.MemSize)))
		c.writeReg(inst.RA, inst.RASp, v)
		ev.addr = addr
		if !inDise {
			c.stats.Loads++
		}

	case isa.ClassStore:
		base := c.readReg(inst.RB, inst.RBSp)
		addr := isa.EffAddr(base, inst.Imm)
		size := int(u.MemSize)
		c.Mem.Write(addr, size, isa.StoreValue(inst.Op, c.readReg(inst.RA, inst.RASp)))
		ev.addr = addr
		if c.Hooks.OnStore != nil {
			if stall := c.Hooks.OnStore(StoreEvent{PC: pc, DisePC: dpc, Addr: addr, Size: size, InDise: inDise}); stall > 0 {
				ev.trapStall += stall
				ev.flags |= evTrapped
			}
		}
		if !inDise {
			c.stats.Stores++
		}

	case isa.ClassBranch:
		taken := isa.BranchTaken(inst.Op, c.readReg(inst.RA, inst.RASp))
		// UpdateCond recomputes the pre-update prediction internally, so a
		// separate PredictCond lookup would double the table accesses.
		if c.BP.UpdateCond(pc, taken) {
			ev.flags |= evMispredict
			c.stats.BranchMispredicts++
		}
		if taken {
			ev.flags |= evRedirect
			ev.nextPC = isa.BranchTarget(pc, inst.Imm)
		}

	case isa.ClassJump:
		c.execJump(inst, pc, ev)

	case isa.ClassTrap:
		c.execTrap(inst, pc, dpc, inDise, ev)

	case isa.ClassDise:
		c.execDise(inst, pc, dpc, ev)
	}
}

func (c *Core) execALU(inst *isa.Inst) {
	switch inst.Op {
	case isa.OpLda, isa.OpLdah:
		base := c.readReg(inst.RB, inst.RBSp)
		c.writeReg(inst.RA, inst.RASp, isa.LdaResult(inst.Op, base, inst.Imm))
	case isa.OpDmfr:
		c.writeReg(inst.RC, isa.AppSpace, c.Engine.Regs[inst.RB%isa.NumDiseRegs])
	case isa.OpDmtr:
		c.Engine.Regs[inst.RB%isa.NumDiseRegs] = c.readReg(inst.RA, inst.RASp)
	default:
		a := c.readReg(inst.RA, inst.RASp)
		var b uint64
		if inst.UseImm {
			b = uint64(inst.Imm)
		} else {
			b = c.readReg(inst.RB, inst.RBSp)
		}
		c.writeReg(inst.RC, inst.RCSp, isa.ALU(inst.Op, a, b))
	}
}

func (c *Core) execJump(inst *isa.Inst, pc uint64, ev *execResult) {
	ret := pc + 4
	switch inst.Op {
	case isa.OpBr:
		ev.flags |= evRedirect
		ev.nextPC = isa.BranchTarget(pc, inst.Imm)
		c.writeReg(inst.RA, inst.RASp, ret)
	case isa.OpBsr:
		ev.flags |= evRedirect
		ev.nextPC = isa.BranchTarget(pc, inst.Imm)
		c.writeReg(inst.RA, inst.RASp, ret)
		c.BP.PushRAS(ret)
	case isa.OpJmp, isa.OpJsr:
		target := c.readReg(inst.RB, inst.RBSp) &^ 3
		predicted, ok := c.BP.PredictTarget(pc)
		if !ok || predicted != target {
			ev.flags |= evMispredict
			c.stats.BranchMispredicts++
		}
		c.BP.UpdateTarget(pc, target)
		ev.flags |= evRedirect
		ev.nextPC = target
		c.writeReg(inst.RA, inst.RASp, ret)
		if inst.Op == isa.OpJsr {
			c.BP.PushRAS(ret)
		}
	case isa.OpRet:
		target := c.readReg(inst.RB, inst.RBSp) &^ 3
		predicted, ok := c.BP.PopRAS()
		if !ok || predicted != target {
			ev.flags |= evMispredict
			c.stats.BranchMispredicts++
		}
		ev.flags |= evRedirect
		ev.nextPC = target
	}
}

func (c *Core) execTrap(inst *isa.Inst, pc uint64, dpc int, inDise bool, ev *execResult) {
	if inst.Op == isa.OpCtrap && !isa.BranchTaken(isa.OpBne, c.readReg(inst.RA, inst.RASp)) {
		return // condition false: no trap, no flush — the whole point (§4.2)
	}
	if c.Hooks.OnTrap != nil {
		ev.trapStall += c.Hooks.OnTrap(TrapEvent{PC: pc, DisePC: dpc, Op: inst.Op, Code: inst.Imm, InDise: inDise})
		ev.flags |= evTrapped
	} else {
		// An unhandled trap halts: it would otherwise kill the process.
		ev.flags |= evHalted
	}
}

func (c *Core) execDise(inst *isa.Inst, pc uint64, dpc int, ev *execResult) {
	switch inst.Op {
	case isa.OpDbeq, isa.OpDbne:
		if isa.BranchTaken(inst.Op, c.readReg(inst.RA, inst.RASp)) {
			ev.flags |= evDiseFlush | evRedirect
			ev.nextDPC = dise.DBranchTarget(dpc, inst.Imm)
			ev.nextPC = pc
			c.stats.DiseBranchFlushes++
		}
	case isa.OpDcall, isa.OpDccall:
		if inst.Op == isa.OpDccall && c.readReg(inst.RA, inst.RASp) == 0 {
			return
		}
		c.Engine.DLinkPC, c.Engine.DLinkDPC = pc, dpc+1
		c.Engine.Active = false
		c.inDiseFunc = true
		ev.nextPC = c.Engine.Regs[inst.RB%isa.NumDiseRegs] &^ 3
		ev.nextDPC = 0
		ev.flags |= evRedirect | c.callFlush()
	case isa.OpDret:
		c.Engine.Active = true
		c.inDiseFunc = false
		ev.nextPC, ev.nextDPC = c.Engine.DLinkPC, c.Engine.DLinkDPC
		ev.flags |= evRedirect | c.callFlush()
	}
}

// callFlush returns how a DISE call or return redirects fetch: through a
// pipeline flush, counted, or on the spare thread context under the
// multithreading optimization.
func (c *Core) callFlush() uint8 {
	if c.cfg.MTDiseCalls {
		return evMTCall
	}
	c.stats.DiseCallFlushes++
	return evDiseFlush
}

// time books the uop through the timing model in one pass, fetch
// through commit, updates the front-end cursors for flushes and stalls,
// and advances the functional front-end cursor to the next uop. It runs
// after exec, which is exact: exec never touches the cache hierarchy, so
// the I-side and D-side accesses keep their order, and the one fetch
// input exec can change, inDiseFunc, was captured before it as inFunc.
// expExtra is the replacement-table refill wait of an expansion starting
// at this uop; pc/dpc are the fetch coordinates captured at the top of
// step.
func (c *Core) time(u *isa.Uop, ev *execResult, expExtra uint64, inDise, inFunc bool, pc uint64, dpc int) {
	// Fetch: instruction-cache latency once per line, fetch bandwidth.
	earliest := max(c.fetchCursor, c.lastFetch)
	if c.cfg.MTDiseCalls && inFunc && c.mtCursor > earliest {
		// Function-thread fetch cannot begin before the call resolved.
		earliest = c.mtCursor
	}
	// Replacement-sequence instructions come from the replacement table,
	// not the I-cache; raw instructions probe the I-cache per line.
	if dpc <= 1 {
		if line := pc & c.l1iMask; line != c.lastFetchLine {
			if lat := c.Hier.FetchLatency(pc, earliest); lat > c.l1iHitLat {
				earliest += lat - c.l1iHitLat
			}
			c.lastFetchLine = line
		}
	}
	var at uint64
	if c.linear {
		// Requests never go below earliest again, so it is the floor.
		at = c.fetchRef.book(earliest, earliest)
	} else {
		at = c.fetchBook.book(earliest)
	}
	c.lastFetch = at
	c.fetchCursor = at
	fetchAt := at + expExtra

	// Structure occupancy: ROB, RS, and (for memory ops) LSQ. A full
	// structure admits the uop the cycle after its oldest occupant
	// releases; a filling one reads 0, which never binds (arrival >= 1).
	earliest = max(fetchAt+uint64(c.cfg.FrontEndDepth), c.robRing.oldest()+1, c.rsRing.oldest()+1)
	isMem := u.Flags&(isa.UopLoad|isa.UopStore) != 0
	if isMem {
		earliest = max(earliest, c.lsqRing.oldest()+1)
	}
	if earliest < c.lastDispatch {
		earliest = c.lastDispatch
	}
	var dispatchAt uint64
	if c.linear {
		dispatchAt = c.dispatchRef.book(earliest, earliest)
	} else {
		dispatchAt = c.dispatchBook.book(earliest)
	}
	c.lastDispatch = dispatchAt

	// Every port request from here on — this uop's and every later one's,
	// since dispatch only moves forward — issues after dispatchAt, so the
	// port tables may drop any booking below floor.
	floor := dispatchAt + 1

	// Operand readiness, over the pre-resolved source references.
	issueEarliest := floor
	for k := 0; k < int(u.NSrc); k++ {
		s := u.Srcs[k]
		if t := c.readyAt(s.Reg, s.Space); t > issueEarliest {
			issueEarliest = t
		}
	}

	// Issue: function unit and port booking; completion latency.
	var issueAt, doneAt uint64
	switch {
	case u.Flags&isa.UopLoad != 0:
		fwd, ready, fwdCommit := c.searchStoreQ(ev.addr, int(u.MemSize), issueEarliest)
		if ready+1 > issueEarliest {
			// Forwarded data arrives at ready; a partial overlap cannot
			// forward and instead holds the load until the store drains.
			issueEarliest = ready + 1
		}
		issueAt = c.loadBook.book(issueEarliest, floor)
		if fwd && issueAt <= fwdCommit {
			// The store still occupies its queue entry at the load's
			// actual issue cycle (entries live through their commit
			// cycle): forward at L1 speed without touching the hierarchy.
			doneAt = issueAt + c.l1dHitLat
		} else {
			// No overlap, a partial overlap past its drain, or port
			// contention pushed the issue past the store's commit: the
			// load reads the D-cache like any other access.
			doneAt = issueAt + c.Hier.DataLatency(ev.addr, false, issueAt)
		}
	case u.Flags&isa.UopStore != 0:
		issueAt = c.aluBook.book(issueEarliest, floor) // address generation
		doneAt = issueAt + 1
	case u.Flags&isa.UopMul != 0:
		issueAt = c.mulBook.book(issueEarliest, floor)
		doneAt = issueAt + uint64(c.cfg.MulLatency)
	default:
		issueAt = c.aluBook.book(issueEarliest, floor)
		doneAt = issueAt + 1
	}

	// Destination becomes ready at completion.
	if u.Flags&isa.UopHasDst != 0 {
		d := u.Dst
		if c.cfg.MTDiseCalls && inFunc && d.Space == isa.AppSpace {
			// The function thread has its own rename space; its register
			// writes do not stall the application thread (§4).
		} else {
			c.setReadyAt(d.Reg, d.Space, doneAt)
		}
	}

	// In-order commit with width-limited bandwidth.
	commitEarliest := doneAt + 1
	if commitEarliest < c.lastCommit {
		commitEarliest = c.lastCommit
	}
	var commitAt uint64
	if c.linear {
		commitAt = c.commitRef.book(commitEarliest, commitEarliest)
	} else {
		commitAt = c.commitBook.book(commitEarliest)
	}
	c.lastCommit = commitAt

	// Structure releases.
	c.robRing.push(commitAt)
	c.rsRing.push(issueAt + 1)
	if isMem {
		c.lsqRing.push(commitAt)
	}
	if u.Flags&isa.UopStore != 0 {
		c.pushStoreQ(ev.addr, int(u.MemSize), doneAt, commitAt)
		// The store drains to the data cache after commit.
		c.Hier.DataLatency(ev.addr, true, commitAt)
	}

	// Statistics.
	switch {
	case inFunc:
		c.stats.FuncInsts++
	case inDise:
		c.stats.DiseUops++
	default:
		c.stats.AppInsts++
	}

	// Front-end redirects.
	switch {
	case ev.trapStall > 0:
		// Costly debugger transition: pipeline flush plus stall; fetch
		// restarts after the stall (paper §5 methodology).
		c.fetchCursor = commitAt + ev.trapStall
		c.stats.TrapStallCycles += ev.trapStall
		c.stats.Traps++
	case ev.flags&(evMispredict|evDiseFlush) != 0:
		c.fetchCursor = doneAt + 1
	case ev.flags&evMTCall != 0:
		// Function thread fetches from its own context: no main-thread
		// flush. Its uops start no earlier than the call's completion.
		if doneAt+1 > c.mtCursor {
			c.mtCursor = doneAt + 1
		}
	case ev.flags&evRedirect != 0:
		// Correctly predicted taken control flow: the fetch group ends.
		c.fetchCursor = fetchAt + 1
	}
	if ev.flags&evTrapped != 0 && ev.trapStall == 0 {
		c.stats.FreeTraps++
	}
	if ev.flags&evHalted != 0 {
		c.halted = true
		c.stats.Halted = true
		c.stats.HaltPC = c.pc
		return // pc stays at the halt
	}

	// Advance the functional front-end cursor to the next uop (fused
	// former advance step).
	if ev.flags&evRedirect != 0 {
		c.pc, c.dpc = ev.nextPC, ev.nextDPC
		if c.dpc > 0 {
			if c.exp == nil {
				// Resuming mid-sequence after a DISE call returned: the
				// engine re-expands the trigger at the same PC, from the
				// same memo.
				raw, pg := c.pred.fetch(c.pc)
				if c.Engine.ReexpandMemo(raw, c.pc, c.pred.memo(pg, c.pc), &c.expBuf) {
					c.exp = &c.expBuf
				} else {
					// The production vanished mid-call; resume raw.
					c.dpc = 0
				}
			}
			if c.exp != nil && c.dpc > len(c.exp.Uops) {
				// Jump or return past the end of the sequence: it is done.
				c.pc, c.dpc = c.pc+4, 0
			}
		}
		if c.dpc == 0 {
			c.exp = nil
		}
		return
	}
	if dpc > 0 {
		if dpc+1 <= len(c.exp.Uops) {
			c.dpc = dpc + 1
		} else {
			c.pc, c.dpc, c.exp = pc+4, 0, nil
		}
		return
	}
	c.pc = pc + 4
}

// searchStoreQ looks for a live in-flight store overlapping [addr,
// addr+size) as of cycle now (the load's earliest issue cycle). A
// containing store forwards its data once ready (its dataDone cycle); a
// partial overlap cannot forward and instead holds the load until the
// store's commit (ready = commit), after which the load probes the
// cache; a store whose commit cycle has passed has drained to the
// D-cache and never forwards. fwdCommit reports the matched store's
// commit cycle so the caller can re-check forwarding against the load's
// actual (port-booked) issue cycle. The common cases — no live stores,
// every store drained, or a load disjoint from all of them — are
// answered by the occupancy counter, the next-drain edge
// (storeQMaxCommit), and the address bounds without touching the queue;
// only genuinely ambiguous loads scan, newest-to-oldest, with a modulo-
// and bounds-free loop body that stops once every live entry has been
// seen instead of walking the dead tail of the queue.
func (c *Core) searchStoreQ(addr uint64, size int, now uint64) (forward bool, ready, fwdCommit uint64) {
	if c.linear {
		return c.searchStoreQRef(addr, size, now)
	}
	if c.storeQLive == 0 {
		return false, 0, 0
	}
	// Destructive retirement must not key on this load's issue cycle:
	// issue times are not monotonic in program order, so a late-issuing
	// load (stalled on a long dependence chain) must not clear entries a
	// later, earlier-issuing load can still forward from. lastDispatch IS
	// monotonic, and every future load issues strictly after its dispatch
	// cycle, so a store committed at or before lastDispatch is dead for
	// every load yet to come.
	bound := c.lastDispatch
	if c.storeQMaxCommit <= bound {
		// Commits are booked in order, so the newest store's commit bounds
		// them all: everything has drained for good. Bulk-retire by
		// bumping the generation instead of clearing entries.
		c.storeQGen++
		c.storeQLive = 0
		c.storeQLo, c.storeQHi = ^uint64(0), 0
		c.storeQMaxCommit = 0
		return false, 0, 0
	}
	if now > c.storeQMaxCommit {
		// Every in-flight store drains before this load can issue: probe
		// the cache. The entries stay — they may still forward to a load
		// that issues earlier.
		return false, 0, 0
	}
	end := addr + uint64(size)
	if end <= c.storeQLo || addr >= c.storeQHi {
		return false, 0, 0
	}
	idx := c.storeQHead
	live := c.storeQLive
	for i := 0; i < len(c.storeQ) && live > 0; i++ {
		if idx == 0 {
			idx = len(c.storeQ)
		}
		idx--
		s := &c.storeQ[idx]
		if s.gen != c.storeQGen {
			continue
		}
		live--
		if s.commit < now {
			// Drained before this load issues: no forwarding. Reclaim the
			// entry only once no future load can want it either.
			if s.commit <= bound {
				s.gen = 0
				if c.storeQLive--; c.storeQLive == 0 {
					c.storeQLo, c.storeQHi = ^uint64(0), 0
					c.storeQMaxCommit = 0
					return false, 0, 0
				}
			}
			continue
		}
		sEnd := s.addr + uint64(s.size)
		if addr >= sEnd || end <= s.addr {
			continue
		}
		if addr >= s.addr && end <= sEnd {
			return true, s.dataDone, s.commit
		}
		// Partial overlap: the queue cannot stitch the bytes together, so
		// the load waits for the drain and then reads the cache.
		return false, s.commit, s.commit
	}
	return false, 0, 0
}

// searchStoreQRef is the retained linear-reference store-queue search:
// a full newest-to-oldest scan that consults neither the occupancy
// counter, the next-drain edge, nor the address bounds, and retires
// nothing. It must answer exactly like searchStoreQ. The equivalence
// argument for the missing retirement: searchStoreQ only ever kills
// entries whose commit is at or before lastDispatch, and every future
// load issues strictly after its own dispatch cycle — so any entry the
// event path has retired fails this scan's `commit < now` liveness test
// anyway. Entries overwritten in place by pushStoreQ are equally dead in
// both paths: the LSQ ring forces the overwriting store's dispatch past
// the old entry's commit.
func (c *Core) searchStoreQRef(addr uint64, size int, now uint64) (forward bool, ready, fwdCommit uint64) {
	end := addr + uint64(size)
	idx := c.storeQHead
	for i := 0; i < len(c.storeQ); i++ {
		if idx == 0 {
			idx = len(c.storeQ)
		}
		idx--
		s := &c.storeQ[idx]
		if s.gen != c.storeQGen || s.commit < now {
			continue
		}
		sEnd := s.addr + uint64(s.size)
		if addr >= sEnd || end <= s.addr {
			continue
		}
		if addr >= s.addr && end <= sEnd {
			return true, s.dataDone, s.commit
		}
		return false, s.commit, s.commit
	}
	return false, 0, 0
}

func (c *Core) pushStoreQ(addr uint64, size int, dataDone, commit uint64) {
	// r names the run state once: every c.storeQ* below would otherwise
	// select through the embedded field, and the extra selectors would
	// price this function out of inlining into time.
	r := &c.run
	s := &c.storeQ[r.storeQHead]
	if s.gen != r.storeQGen {
		r.storeQLive++
	}
	*s = storeRec{addr: addr, size: size, dataDone: dataDone, commit: commit, gen: r.storeQGen}
	if r.storeQHead++; r.storeQHead == len(c.storeQ) {
		r.storeQHead = 0
	}
	// Commit cycles are booked in order (commitBook requests are clamped
	// by lastCommit), so the newest store's commit IS the drain edge — no
	// comparison against the previous edge needed, including right after
	// a bulk retire zeroed it.
	r.storeQMaxCommit = commit
	r.storeQLo = min(r.storeQLo, addr)
	r.storeQHi = max(r.storeQHi, addr+uint64(size))
}
