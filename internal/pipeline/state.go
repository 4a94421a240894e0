// Snapshot/Restore for the pipeline core. The captured surface is exactly
// the one Core.Reset enumerates — architectural registers, page
// protections, front-end cursors and the in-flight expansion, timing
// tables and rings, the store queue, the predecoded-text cache, and
// statistics — so Snapshot-then-Restore composes with the pool-recycle
// contract: a restored core continues bit-identically to the original.
//
// The timing tables serialize what can still affect a future decision:
//
//   - a fetch, dispatch, or commit table is its cursor, (cycle, count):
//     every older cycle is behind every future request. A LinearTiming
//     core reads the same pair off its reference ring (the newest slot,
//     at lastFetch/lastDispatch/lastCommit) and restores a ring holding
//     only that slot, so both timing modes encode these tables alike;
//   - a port table is its ring at its current length, stale entries
//     included. Restore resizes the ring to the snapshot's length;
//   - a ROB/RS/LSQ ring is copied raw, with the ring's single write
//     index mapped to the head/tail pair the encoding has always carried
//     (ring.snapshot);
//   - the store queue's drain edge (storeQMaxCommit) is part of the
//     captured surface, and predState carries the predecoder's fetch
//     window as its page number.
//
// The predecoder is captured as metadata only (which pages, LRU stamps);
// Restore re-decodes the micro-ops from the restored memory — resolution
// is a pure function of the instruction word, and the invalidation hook
// guarantees the restored bytes are what was cached — so the rebuilt uop
// cache is bit-identical to the donor's. The in-flight expansion likewise
// serializes only the instructions; derived uop fields re-resolve on
// restore.
package pipeline

import (
	"encoding/binary"

	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/mem"
)

// cursorState is a cursor's serialized form, and a LinearTiming core's
// reference ring reduced to the same pair.
type cursorState struct {
	cycle uint64
	count uint16
}

// monoState snapshots a fetch, dispatch, or commit table: the cursor, or
// on a LinearTiming core its reference ring read as one — last, the
// newest booked cycle, and that cycle's count.
func monoState(k *cursor, ref *booking, last uint64) cursorState {
	if ref == nil {
		return cursorState{cycle: k.cycle, count: k.count}
	}
	st := cursorState{cycle: last}
	if i := last & uint64(len(ref.cycle)-1); ref.cycle[i] == last {
		st.count = ref.count[i]
	}
	return st
}

// restoreMono restores a fetch, dispatch, or commit table. A LinearTiming
// core's reference ring gets back only the cursor's slot: every other
// slot holds a cycle below any future request, which no probe can match.
func restoreMono(k *cursor, ref *booking, st cursorState) {
	k.cycle, k.count = st.cycle, st.count
	if ref != nil {
		ref.reset()
		i := st.cycle & uint64(len(ref.cycle)-1)
		ref.cycle[i], ref.count[i] = st.cycle, st.count
	}
}

type bookingState struct {
	cycle []uint64
	count []uint16
}

func (b *booking) snapshot() bookingState {
	return bookingState{
		cycle: append([]uint64(nil), b.cycle...),
		count: append([]uint16(nil), b.count...),
	}
}

func (b *booking) restore(st *bookingState) {
	if len(st.cycle) != len(b.cycle) {
		b.cycle = make([]uint64, len(st.cycle))
		b.count = make([]uint16, len(st.count))
	}
	copy(b.cycle, st.cycle)
	copy(b.count, st.count)
}

type ringState struct {
	buf           []uint64
	head, tail, n int
}

func (r *ring) snapshot() ringState {
	// The single write index maps onto the serialized head/tail pair the
	// encoding has always carried: while filling the head is pinned at 0
	// and the tail is the write index; once full the tail freezes at 0
	// (it wrapped exactly when the ring filled) and the head is the write
	// index (the oldest entry, recycled in place).
	st := ringState{
		buf: append([]uint64(nil), r.buf...),
		n:   r.n,
	}
	if r.n == len(r.buf) {
		st.head = r.pos
	} else {
		st.tail = r.pos
	}
	return st
}

func (r *ring) restore(st *ringState) {
	if len(st.buf) != len(r.buf) {
		panic("pipeline: ring restore geometry mismatch")
	}
	copy(r.buf, st.buf)
	r.n = st.n
	// Reconstruct the write index from the head/tail pair (see snapshot).
	if r.n == len(r.buf) {
		r.pos = st.head
	} else {
		r.pos = st.tail
	}
}

type predPageState struct {
	pn      uint64
	lastUse uint64
}

type predState struct {
	pages      []predPageState // ascending pn
	clock      uint64
	winPN      uint64 // the fetch window's page, when winValid
	winValid   bool
	loPN, hiPN uint64

	hits, decodes, evictions, invalidations uint64
	resolves, uopInvals                     uint64
}

func (d *predecoder) snapshot() predState {
	st := predState{
		clock:         d.clock,
		winPN:         mem.PageOf(d.winBase),
		winValid:      d.win != nil,
		loPN:          d.loPN,
		hiPN:          d.hiPN,
		hits:          d.hits,
		decodes:       d.decodes,
		evictions:     d.evictions,
		invalidations: d.invalidations,
		resolves:      d.resolves,
		uopInvals:     d.uopInvals,
	}
	st.pages = make([]predPageState, 0, len(d.pages))
	for pn, pg := range d.pages {
		st.pages = append(st.pages, predPageState{pn: pn, lastUse: pg.lastUse})
	}
	sortPredPages(st.pages)
	return st
}

func sortPredPages(ps []predPageState) {
	// Insertion sort: the page set is tiny (capped at maxPages, default
	// 64) and nearly sorted for typical text layouts.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j-1].pn > ps[j].pn; j-- {
			ps[j-1], ps[j] = ps[j], ps[j-1]
		}
	}
}

// restore rebuilds the decoded pages from the (already restored) memory.
// The invalidation hook keeps cached pages coherent with memory, so the
// instructions decoded here are bit-identical to what was cached when the
// snapshot was taken.
func (d *predecoder) restore(st *predState) {
	d.pages = make(map[uint64]*decodedPage, len(st.pages))
	for _, ps := range st.pages {
		pg := new(decodedPage)
		base := ps.pn * mem.PageSize
		for i := 0; i < instsPerPage; i++ {
			pg.uops[i] = isa.DecodeUop(d.m.ReadInst(base + uint64(i)*4))
		}
		pg.lastUse = ps.lastUse
		d.pages[ps.pn] = pg
	}
	d.clock = st.clock
	if st.winValid {
		d.win, d.winBase = d.pages[st.winPN], st.winPN*mem.PageSize
	} else {
		d.win, d.winBase = nil, noWindow
	}
	d.loPN, d.hiPN = st.loPN, st.hiPN
	d.hits, d.decodes = st.hits, st.decodes
	d.evictions, d.invalidations = st.evictions, st.invalidations
	d.resolves, d.uopInvals = st.resolves, st.uopInvals
}

// State is a point-in-time copy of a Core. It does not capture the
// configuration, the attached memory-system objects, or the debugger
// hooks; restore those separately (machine.State composes the whole
// simulated machine, debug.Checkpoint carries the debugger).
type State struct {
	regs      [isa.NumRegs]uint64
	protPages []uint64

	pc  uint64
	dpc int

	expValid        bool
	expProd         *dise.Production
	expUops         []isa.Uop
	expExtraLatency int

	inDiseFunc bool
	halted     bool
	stopReq    bool

	fetchCursor                         uint64
	fetchBook, dispatchBook, commitBook cursorState
	lastFetch, lastDispatch, lastCommit uint64
	aluBook, mulBook, loadBook          bookingState
	robRing, rsRing, lsqRing            ringState

	appReady  [isa.NumRegs]uint64
	diseReady [isa.NumDiseRegs]uint64

	storeQ             []storeRec
	storeQHead         int
	storeQGen          uint64
	storeQLive         int
	storeQLo, storeQHi uint64
	storeQMaxCommit    uint64

	lastFetchLine uint64
	mtCursor      uint64

	pred predState

	stats Stats
}

// Halted reports whether the core was halted at capture time.
func (st *State) Halted() bool { return st.halted }

// ExpansionProd returns the production of the in-flight replacement
// sequence at capture time, or nil when none was in flight. Encoders use
// it (via dise.State.IndexOf) to name the production by table index.
func (st *State) ExpansionProd() *dise.Production { return st.expProd }

// Snapshot captures the core state. It does not modify the core.
func (c *Core) Snapshot() *State {
	st := &State{
		regs:      c.Regs,
		protPages: c.Prot.Pages(),

		pc:  c.pc,
		dpc: c.dpc,

		inDiseFunc: c.inDiseFunc,
		halted:     c.halted,
		stopReq:    c.stopReq,

		fetchCursor:  c.fetchCursor,
		fetchBook:    monoState(&c.fetchBook, c.fetchRef, c.lastFetch),
		dispatchBook: monoState(&c.dispatchBook, c.dispatchRef, c.lastDispatch),
		commitBook:   monoState(&c.commitBook, c.commitRef, c.lastCommit),
		lastFetch:    c.lastFetch,
		lastDispatch: c.lastDispatch,
		lastCommit:   c.lastCommit,
		aluBook:      c.aluBook.snapshot(),
		mulBook:      c.mulBook.snapshot(),
		loadBook:     c.loadBook.snapshot(),
		robRing:      c.robRing.snapshot(),
		rsRing:       c.rsRing.snapshot(),
		lsqRing:      c.lsqRing.snapshot(),

		appReady:  c.appReady,
		diseReady: c.diseReady,

		storeQ:          append([]storeRec(nil), c.storeQ...),
		storeQHead:      c.storeQHead,
		storeQGen:       c.storeQGen,
		storeQLive:      c.storeQLive,
		storeQLo:        c.storeQLo,
		storeQHi:        c.storeQHi,
		storeQMaxCommit: c.storeQMaxCommit,

		lastFetchLine: c.lastFetchLine,
		mtCursor:      c.mtCursor,

		pred: c.pred.snapshot(),

		stats: c.stats,
	}
	if c.exp != nil {
		// Expansion uops are never written after their memo is filled,
		// so the snapshot shares them.
		st.expValid = true
		st.expProd = c.exp.Prod
		st.expUops = c.exp.Uops
		st.expExtraLatency = c.exp.ExtraLatency
	}
	return st
}

// Restore replaces the core state with the snapshot's. The configuration,
// memory-system attachments, per-side hit latencies, and Hooks are left
// untouched — a restored core keeps whatever debugger is (re)attached to
// it. Memory must be restored before the core so the predecoded-text
// cache rebuilds from the right bytes.
func (c *Core) Restore(st *State) {
	c.Regs = st.regs
	c.Prot.Clear()
	for _, pn := range st.protPages {
		c.Prot.ProtectRange(pn*mem.PageSize, mem.PageSize)
	}

	c.pc, c.dpc = st.pc, st.dpc
	if st.expValid {
		c.expBuf = dise.Expansion{
			Prod:         st.expProd,
			Uops:         st.expUops,
			ExtraLatency: st.expExtraLatency,
		}
		c.exp = &c.expBuf
	} else {
		c.exp = nil
		c.expBuf = dise.Expansion{}
	}
	c.inDiseFunc = st.inDiseFunc
	c.halted = st.halted
	c.stopReq = st.stopReq

	c.fetchCursor = st.fetchCursor
	restoreMono(&c.fetchBook, c.fetchRef, st.fetchBook)
	restoreMono(&c.dispatchBook, c.dispatchRef, st.dispatchBook)
	restoreMono(&c.commitBook, c.commitRef, st.commitBook)
	c.lastFetch, c.lastDispatch, c.lastCommit = st.lastFetch, st.lastDispatch, st.lastCommit
	c.aluBook.restore(&st.aluBook)
	c.mulBook.restore(&st.mulBook)
	c.loadBook.restore(&st.loadBook)
	c.robRing.restore(&st.robRing)
	c.rsRing.restore(&st.rsRing)
	c.lsqRing.restore(&st.lsqRing)

	c.appReady = st.appReady
	c.diseReady = st.diseReady

	if len(st.storeQ) != len(c.storeQ) {
		panic("pipeline: Restore store-queue geometry mismatch")
	}
	copy(c.storeQ, st.storeQ)
	c.storeQHead = st.storeQHead
	c.storeQGen = st.storeQGen
	c.storeQLive = st.storeQLive
	c.storeQLo, c.storeQHi = st.storeQLo, st.storeQHi
	c.storeQMaxCommit = st.storeQMaxCommit

	c.lastFetchLine = st.lastFetchLine
	c.mtCursor = st.mtCursor

	c.pred.restore(&st.pred)

	c.stats = st.stats
}

// AppendBinary appends a deterministic encoding of the snapshot to dst.
// expProdIdx is the in-flight expansion's production-table index in the
// accompanying DISE snapshot (-1 when no expansion was in flight);
// productions are encoded once, by the engine, and referenced by index
// here.
func (st *State) AppendBinary(dst []byte, expProdIdx int) []byte {
	for _, r := range st.regs {
		dst = binary.LittleEndian.AppendUint64(dst, r)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.protPages)))
	for _, pn := range st.protPages {
		dst = binary.LittleEndian.AppendUint64(dst, pn)
	}
	dst = binary.LittleEndian.AppendUint64(dst, st.pc)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(st.dpc)))
	dst = appendFlag(dst, st.expValid)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(expProdIdx)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.expUops)))
	for i := range st.expUops {
		// Only the instruction is encoded; the derived uop fields are a
		// pure function of it and re-resolve on restore.
		dst = appendInst(dst, &st.expUops[i].Inst)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(st.expExtraLatency)))
	dst = appendFlag(dst, st.inDiseFunc)
	dst = appendFlag(dst, st.halted)
	dst = appendFlag(dst, st.stopReq)

	dst = binary.LittleEndian.AppendUint64(dst, st.fetchCursor)
	for _, k := range []cursorState{st.fetchBook, st.dispatchBook, st.commitBook} {
		dst = binary.LittleEndian.AppendUint64(dst, k.cycle)
		dst = binary.LittleEndian.AppendUint16(dst, k.count)
	}
	for _, b := range []*bookingState{&st.aluBook, &st.mulBook, &st.loadBook} {
		dst = appendBooking(dst, b)
	}
	dst = binary.LittleEndian.AppendUint64(dst, st.lastFetch)
	dst = binary.LittleEndian.AppendUint64(dst, st.lastDispatch)
	dst = binary.LittleEndian.AppendUint64(dst, st.lastCommit)
	for _, r := range []*ringState{&st.robRing, &st.rsRing, &st.lsqRing} {
		dst = appendRing(dst, r)
	}

	for _, r := range st.appReady {
		dst = binary.LittleEndian.AppendUint64(dst, r)
	}
	for _, r := range st.diseReady {
		dst = binary.LittleEndian.AppendUint64(dst, r)
	}

	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.storeQ)))
	for i := range st.storeQ {
		s := &st.storeQ[i]
		dst = binary.LittleEndian.AppendUint64(dst, s.addr)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(s.size)))
		dst = binary.LittleEndian.AppendUint64(dst, s.dataDone)
		dst = binary.LittleEndian.AppendUint64(dst, s.commit)
		dst = binary.LittleEndian.AppendUint64(dst, s.gen)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(st.storeQHead)))
	dst = binary.LittleEndian.AppendUint64(dst, st.storeQGen)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(st.storeQLive)))
	dst = binary.LittleEndian.AppendUint64(dst, st.storeQLo)
	dst = binary.LittleEndian.AppendUint64(dst, st.storeQHi)
	dst = binary.LittleEndian.AppendUint64(dst, st.storeQMaxCommit)

	dst = binary.LittleEndian.AppendUint64(dst, st.lastFetchLine)
	dst = binary.LittleEndian.AppendUint64(dst, st.mtCursor)

	dst = appendPred(dst, &st.pred)

	dst = appendStats(dst, &st.stats)
	return dst
}

func appendFlag(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendInst(dst []byte, in *isa.Inst) []byte {
	dst = append(dst, byte(in.Op),
		byte(in.RA), byte(in.RB), byte(in.RC),
		byte(in.RASp), byte(in.RBSp), byte(in.RCSp))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(in.Imm))
	return appendFlag(dst, in.UseImm)
}

func appendBooking(dst []byte, b *bookingState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(b.cycle)))
	for _, c := range b.cycle {
		dst = binary.LittleEndian.AppendUint64(dst, c)
	}
	for _, n := range b.count {
		dst = binary.LittleEndian.AppendUint16(dst, n)
	}
	return dst
}

func appendRing(dst []byte, r *ringState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(r.buf)))
	for _, c := range r.buf {
		dst = binary.LittleEndian.AppendUint64(dst, c)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(r.head)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(r.tail)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(r.n)))
	return dst
}

func appendPred(dst []byte, p *predState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(p.pages)))
	for _, pg := range p.pages {
		dst = binary.LittleEndian.AppendUint64(dst, pg.pn)
		dst = binary.LittleEndian.AppendUint64(dst, pg.lastUse)
	}
	dst = binary.LittleEndian.AppendUint64(dst, p.clock)
	dst = binary.LittleEndian.AppendUint64(dst, p.winPN)
	dst = appendFlag(dst, p.winValid)
	dst = binary.LittleEndian.AppendUint64(dst, p.loPN)
	dst = binary.LittleEndian.AppendUint64(dst, p.hiPN)
	dst = binary.LittleEndian.AppendUint64(dst, p.hits)
	dst = binary.LittleEndian.AppendUint64(dst, p.decodes)
	dst = binary.LittleEndian.AppendUint64(dst, p.evictions)
	dst = binary.LittleEndian.AppendUint64(dst, p.invalidations)
	dst = binary.LittleEndian.AppendUint64(dst, p.resolves)
	dst = binary.LittleEndian.AppendUint64(dst, p.uopInvals)
	return dst
}

func appendStats(dst []byte, s *Stats) []byte {
	for _, v := range []uint64{
		s.Cycles, s.AppInsts, s.DiseUops, s.FuncInsts, s.Stores, s.Loads,
		s.Expansions, s.BranchMispredicts, s.DiseBranchFlushes,
		s.DiseCallFlushes, s.TrapStallCycles, s.Traps, s.FreeTraps,
		s.PredecodeHits, s.PredecodePageDecodes, s.PredecodeEvictions,
		s.PredecodeInvalidations,
		s.UopHits, s.UopResolves, s.UopInvalidations, s.HaltPC,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return appendFlag(dst, s.Halted)
}
