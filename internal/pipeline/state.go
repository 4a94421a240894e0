// Snapshot/Restore for the pipeline core. A State holds the core's run
// state (the embedded run: registers, front-end cursors and flags, the
// fetch, dispatch, and commit cursors, register ready times, the store
// queue's head, generation, occupancy, bounds and drain edge, and
// statistics) as one copied value, beside copies of the state that owns
// memory (page protections, port tables, occupancy rings, store-queue
// entries, the predecoded-text cache) and the in-flight expansion. That
// is exactly what Core.Reset returns to its initial value, so
// Snapshot-then-Restore composes with the pool-recycle contract: a
// restored core continues bit-identically to the original.
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
//   - a ROB/RS/LSQ ring is copied raw. Its encoding maps the ring's
//     single write index to the head/tail pair and fill count the
//     encoding has always carried (appendRing);
//   - predState carries the predecoder's fetch window as its page
//     number.
//
// The predecoder is captured as metadata only (which pages, in recency
// order); Restore re-decodes the micro-ops from the restored memory —
// resolution is a pure function of the instruction word, and the
// invalidation hook guarantees the restored bytes are what was cached —
// so the rebuilt uop cache is bit-identical to the donor's. The in-flight
// expansion likewise serializes only its instructions, of which the
// derived uop fields are a pure function; Restore shares the snapshot's
// uops, which are never written after their memo is filled.
package pipeline

import (
	"encoding/binary"
	"slices"

	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/mem"
)

// refCursor reads a LinearTiming core's fetch, dispatch, or commit
// reference ring as the cursor it stands in for: last, the newest booked
// cycle, and that cycle's count.
func refCursor(ref *booking, last uint64) cursor {
	k := cursor{cycle: last, limit: ref.limit}
	if i := last & uint64(len(ref.cycle)-1); ref.cycle[i] == last {
		k.count = ref.count[i]
	}
	return k
}

// restoreCursor gives a LinearTiming core's reference ring back only the
// cursor's slot: every other slot holds a cycle below any future request,
// which no probe can match.
func (b *booking) restoreCursor(k cursor) {
	b.reset()
	i := k.cycle & uint64(len(b.cycle)-1)
	b.cycle[i], b.count[i] = k.cycle, k.count
}

func (b *booking) snapshot() booking {
	return booking{cycle: slices.Clone(b.cycle), count: slices.Clone(b.count), limit: b.limit}
}

func (b *booking) restore(st *booking) {
	if len(st.cycle) != len(b.cycle) {
		b.cycle = make([]uint64, len(st.cycle))
		b.count = make([]uint16, len(st.count))
	}
	copy(b.cycle, st.cycle)
	copy(b.count, st.count)
}

func (r *ring) snapshot() ring {
	return ring{buf: slices.Clone(r.buf), pos: r.pos}
}

func (r *ring) restore(st *ring) {
	if len(st.buf) != len(r.buf) {
		panic("pipeline: ring restore geometry mismatch")
	}
	copy(r.buf, st.buf)
	r.pos = st.pos
}

type predState struct {
	pages      []uint64 // decoded pages, most recently looked up first
	winPN      uint64   // the fetch window's page, when winValid
	winValid   bool
	loPN, hiPN uint64

	hits, decodes, evictions, invalidations uint64
	resolves, uopInvals                     uint64
}

func (d *predecoder) snapshot() predState {
	return predState{
		pages:         slices.Clone(d.recent),
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
}

// restore rebuilds the decoded pages from the (already restored) memory.
// The invalidation hook keeps cached pages coherent with memory, so the
// instructions decoded here are bit-identical to what was cached when the
// snapshot was taken.
func (d *predecoder) restore(st *predState) {
	d.pages = make(map[uint64]*decodedPage, len(st.pages))
	for _, pn := range st.pages {
		pg := new(decodedPage)
		base := pn * mem.PageSize
		for i := 0; i < instsPerPage; i++ {
			pg.uops[i] = isa.DecodeUop(d.m.ReadInst(base + uint64(i)*4))
		}
		d.pages[pn] = pg
	}
	d.recent = append(d.recent[:0], st.pages...)
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
	run

	protPages []uint64

	// exp is a copy of the in-flight expansion, nil when none was in
	// flight. Its uops are shared: they are never written after their
	// memo is filled.
	exp *dise.Expansion

	aluBook, mulBook, loadBook booking
	robRing, rsRing, lsqRing   ring
	storeQ                     []storeRec

	pred predState
}

// Halted reports whether the core was halted at capture time.
func (st *State) Halted() bool { return st.halted }

// ExpansionProd returns the production of the in-flight replacement
// sequence at capture time, or nil when none was in flight. Encoders use
// it (via dise.State.IndexOf) to name the production by table index.
func (st *State) ExpansionProd() *dise.Production {
	if st.exp == nil {
		return nil
	}
	return st.exp.Prod
}

// Snapshot captures the core state. It does not modify the core.
func (c *Core) Snapshot() *State {
	st := &State{
		run:       c.run,
		protPages: c.Prot.Pages(),
		aluBook:   c.aluBook.snapshot(),
		mulBook:   c.mulBook.snapshot(),
		loadBook:  c.loadBook.snapshot(),
		robRing:   c.robRing.snapshot(),
		rsRing:    c.rsRing.snapshot(),
		lsqRing:   c.lsqRing.snapshot(),
		storeQ:    slices.Clone(c.storeQ),
		pred:      c.pred.snapshot(),
	}
	if c.linear {
		st.fetchBook = refCursor(c.fetchRef, c.lastFetch)
		st.dispatchBook = refCursor(c.dispatchRef, c.lastDispatch)
		st.commitBook = refCursor(c.commitRef, c.lastCommit)
	}
	if c.exp != nil {
		exp := *c.exp
		st.exp = &exp
	}
	return st
}

// Restore replaces the core state with the snapshot's. The configuration,
// memory-system attachments, per-side hit latencies, and Hooks are left
// untouched — a restored core keeps whatever debugger is (re)attached to
// it. Memory must be restored before the core so the predecoded-text
// cache rebuilds from the right bytes.
func (c *Core) Restore(st *State) {
	c.run = st.run
	c.Prot.Clear()
	for _, pn := range st.protPages {
		c.Prot.ProtectRange(pn*mem.PageSize, mem.PageSize)
	}
	if st.exp != nil {
		c.expBuf = *st.exp
		c.exp = &c.expBuf
	} else {
		c.exp, c.expBuf = nil, dise.Expansion{}
	}
	if c.linear {
		c.fetchRef.restoreCursor(st.fetchBook)
		c.dispatchRef.restoreCursor(st.dispatchBook)
		c.commitRef.restoreCursor(st.commitBook)
	}
	c.aluBook.restore(&st.aluBook)
	c.mulBook.restore(&st.mulBook)
	c.loadBook.restore(&st.loadBook)
	c.robRing.restore(&st.robRing)
	c.rsRing.restore(&st.rsRing)
	c.lsqRing.restore(&st.lsqRing)
	if len(st.storeQ) != len(c.storeQ) {
		panic("pipeline: Restore store-queue geometry mismatch")
	}
	copy(c.storeQ, st.storeQ)
	c.pred.restore(&st.pred)
}

// AppendBinary appends a deterministic encoding of the snapshot to dst.
// expProdIdx is the in-flight expansion's production-table index in the
// accompanying DISE snapshot (-1 when no expansion was in flight);
// productions are encoded once, by the engine, and referenced by index
// here.
func (st *State) AppendBinary(dst []byte, expProdIdx int) []byte {
	for _, r := range st.Regs {
		dst = binary.LittleEndian.AppendUint64(dst, r)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.protPages)))
	for _, pn := range st.protPages {
		dst = binary.LittleEndian.AppendUint64(dst, pn)
	}
	dst = binary.LittleEndian.AppendUint64(dst, st.pc)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(st.dpc)))
	var uops []isa.Uop
	extra := 0
	if st.exp != nil {
		uops, extra = st.exp.Uops, st.exp.ExtraLatency
	}
	dst = appendFlag(dst, st.exp != nil)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(expProdIdx)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(uops)))
	for i := range uops {
		// Only the instruction is encoded; the derived uop fields are a
		// pure function of it.
		dst = appendInst(dst, &uops[i].Inst)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(extra)))
	dst = appendFlag(dst, st.inDiseFunc)
	dst = appendFlag(dst, st.halted)
	dst = appendFlag(dst, st.stopReq)

	dst = binary.LittleEndian.AppendUint64(dst, st.fetchCursor)
	for _, k := range []cursor{st.fetchBook, st.dispatchBook, st.commitBook} {
		dst = binary.LittleEndian.AppendUint64(dst, k.cycle)
		dst = binary.LittleEndian.AppendUint16(dst, k.count)
	}
	for _, b := range []*booking{&st.aluBook, &st.mulBook, &st.loadBook} {
		dst = appendBooking(dst, b)
	}
	dst = binary.LittleEndian.AppendUint64(dst, st.lastFetch)
	dst = binary.LittleEndian.AppendUint64(dst, st.lastDispatch)
	dst = binary.LittleEndian.AppendUint64(dst, st.lastCommit)
	for _, r := range []*ring{&st.robRing, &st.rsRing, &st.lsqRing} {
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

func appendBooking(dst []byte, b *booking) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(b.cycle)))
	for _, c := range b.cycle {
		dst = binary.LittleEndian.AppendUint64(dst, c)
	}
	for _, n := range b.count {
		dst = binary.LittleEndian.AppendUint16(dst, n)
	}
	return dst
}

// appendRing encodes a ring with the head/tail pair and fill count the
// encoding has always carried in place of the single write index. The
// ring is full exactly when its write slot is nonzero (see ring). While
// filling the head is pinned at 0 and the tail and fill are the write
// index; once full the tail is 0 (it wrapped exactly when the ring
// filled), the head is the write index (the oldest entry, recycled in
// place) and the fill is the size.
func appendRing(dst []byte, r *ring) []byte {
	head, tail, n := 0, r.pos, r.pos
	if r.oldest() != 0 {
		head, tail, n = r.pos, 0, len(r.buf)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(r.buf)))
	for _, c := range r.buf {
		dst = binary.LittleEndian.AppendUint64(dst, c)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(head)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(tail)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(n)))
	return dst
}

func appendPred(dst []byte, p *predState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(p.pages)))
	for _, pn := range p.pages {
		dst = binary.LittleEndian.AppendUint64(dst, pn)
	}
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
