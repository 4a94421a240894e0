package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Watchpoints holds the addresses of the six paper watchpoints plus the
// Figure 6 vars[] array for one built kernel.
type Watchpoints struct {
	Hot      uint64 // frequently written scalar
	Warm1    uint64
	Warm2    uint64
	Cold     uint64
	Ptr      uint64 // pointer variable whose target is Hot (INDIRECT watches *Ptr)
	Range    uint64 // 32-quad array
	RangeLen uint64 // RANGE length in bytes

	Vars    uint64 // 16 quads written round-robin (Figure 6)
	VarsLen uint64
}

// Workload is a built kernel: the program plus its watchpoint addresses
// and schedule bookkeeping.
type Workload struct {
	Spec    Spec
	Program *asm.Program
	WP      Watchpoints

	// StoresPerIter is the static store count of one outer iteration,
	// used by experiments to reason about frequencies.
	StoresPerIter int
}

// Register allocation inside generated kernels (r26-r29 stay free so the
// binary-rewriting backend can scavenge r27/r28):
const (
	rScr2   = isa.R0  // second scratch
	rCur    = isa.R1  // store cursor
	rIter   = isa.R2  // outer iteration counter
	rBuf    = isa.R3  // store buffer base
	rChain0 = isa.R4  // fill chains r4..r7
	rLocals = isa.R8  // locals page base
	rChase  = isa.R9  // pointer-chase cursor
	rVars   = isa.R10 // vars[] base
	rOff    = isa.R11 // cursor offset accumulator
	rMask   = isa.R12 // store buffer mask
	rW1Cnt  = isa.R13
	rW2Cnt  = isa.R14
	rCldCnt = isa.R15
	rRngCnt = isa.R16
	rHot    = isa.R17
	rScr    = isa.R18
	rHotIdx = isa.R19
	rW1     = isa.R20
	rW2     = isa.R21
	rCold   = isa.R22
	rRange  = isa.R23
	rRngOff = isa.R24
	rVarOff = isa.R25
)

// Build assembles the kernel for spec with the given outer iteration
// count.
func Build(spec Spec, iterations int) (*Workload, error) {
	if iterations <= 0 || iterations >= 1<<31 {
		return nil, fmt.Errorf("workload: bad iteration count %d", iterations)
	}
	b := asm.New()

	// ---- data layout ----
	// Hot locals page: locals + vars[] + the "shared" watched slots that
	// reproduce the virtual-memory pathologies.
	b.DataAlign(4096)
	b.DataLabel("locals")
	b.Quad(0, 0, 0, 0, 0, 0, 0, 0) // 64 bytes
	b.DataLabel("vars")
	for i := 0; i < 16; i++ {
		b.Quad(0)
	}
	b.DataLabel("shared_w1")
	b.Quad(0)
	b.DataLabel("shared_w2")
	b.Quad(0)
	b.DataLabel("shared_cold")
	b.Quad(0)

	// Private pages.
	b.DataAlign(4096)
	b.DataLabel("hot")
	b.Quad(0)
	b.DataLabel("ptr")
	hotAddr := b.DataAddr() - 8
	b.Quad(hotAddr) // ptr -> hot
	b.DataAlign(4096)
	b.DataLabel("priv_w1")
	b.Quad(0)
	b.DataAlign(4096)
	b.DataLabel("priv_w2")
	b.Quad(0)
	b.DataAlign(4096)
	b.DataLabel("priv_cold")
	b.Quad(0)
	b.DataAlign(4096)
	b.DataLabel("range")
	for i := 0; i < 32; i++ {
		b.Quad(0)
	}
	b.DataAlign(4096)
	b.DataLabel("storebuf")
	b.Space(spec.StoreBufBytes)
	if spec.RingBytes > 0 {
		// Pointer-chase ring: a single random cycle over all quads
		// (Sattolo's algorithm with a fixed seed), so every step lands on
		// an unpredictable line and the working set never collapses into
		// a cache-resident lap, however long the run.
		b.DataAlign(4096)
		b.DataLabel("ring")
		base := b.DataAddr()
		ring := b.Space(spec.RingBytes &^ 7)
		perm := make([]uint32, len(ring)/8)
		for i := range perm {
			perm[i] = uint32(i)
		}
		rng := rand.New(rand.NewSource(0x5EED))
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		// perm is now a single cycle: element i points to perm[i].
		for i, p := range perm {
			binary.LittleEndian.PutUint64(ring[i*8:], base+uint64(p)*8)
		}
	}

	pick := func(shared bool, sharedLbl, privLbl string) string {
		if shared {
			return sharedLbl
		}
		return privLbl
	}
	w1Lbl := pick(spec.Warm1Shared, "shared_w1", "priv_w1")
	w2Lbl := pick(spec.Warm2Shared, "shared_w2", "priv_w2")
	coldLbl := pick(spec.ColdShared, "shared_cold", "priv_cold")

	// ---- schedule ----
	sched := computeSchedule(spec)

	// ---- preamble ----
	b.Label("main")
	b.La(rBuf, "storebuf")
	b.Op3(isa.OpBis, rBuf, isa.Zero, rCur)
	b.Li32(rIter, int64(iterations))
	b.La(rLocals, "locals")
	b.La(rHot, "hot")
	b.La(rW1, w1Lbl)
	b.La(rW2, w2Lbl)
	b.La(rCold, coldLbl)
	b.La(rRange, "range")
	b.La(rVars, "vars")
	b.Li32(rMask, int64(spec.StoreBufBytes/2-1))
	b.Li(rOff, 0)
	b.Li(rHotIdx, 0)
	b.Li(rRngOff, 0)
	b.Li(rVarOff, 0)
	if sched.w1Period > 0 {
		b.Li32(rW1Cnt, int64(sched.w1Period))
	}
	if sched.w2Period > 0 {
		b.Li32(rW2Cnt, int64(sched.w2Period))
	}
	if sched.coldPeriod > 0 {
		b.Li32(rCldCnt, int64(sched.coldPeriod))
	}
	if sched.rngPeriod > 0 {
		b.Li32(rRngCnt, int64(sched.rngPeriod))
	}
	if spec.RingBytes > 0 {
		b.La(rChase, "ring")
	}

	// ---- outer loop ----
	b.Label("outer")

	// Locals writes: the -O0-style per-iteration frame traffic that makes
	// the shared page hot.
	b.Stmt()
	for i := 0; i < 4; i++ {
		chain := rChain0 + isa.Reg(i%spec.ILP)
		b.OpI(isa.OpAddq, chain, 1, chain)
		b.Mem(isa.OpStq, chain, int64(i*8), rLocals)
	}

	// Unrolled body. The cursor offset (masked below) and the in-body
	// displacement each stay under half the buffer, so cursor+displacement
	// can never escape the store buffer (it abuts the pointer ring).
	maxDisp := spec.StoreBufBytes / 2
	if maxDisp > 32256 {
		maxDisp = 32256
	}
	for g := 0; g < spec.Groups; g++ {
		if g%2 == 0 {
			// Source statements at -O0 span a handful of instructions; one
			// marker per two groups keeps single-stepping stops in the
			// paper's regime.
			b.Stmt()
		}
		chain := rChain0 + isa.Reg(g%spec.ILP)
		for f := 0; f < spec.Fill; f++ {
			b.OpI(isa.OpAddq, chain, 1, chain)
		}
		if spec.LoadEvery > 0 && g%spec.LoadEvery == 0 {
			b.Mem(isa.OpLdq, rScr, int64((g*24+8)%maxDisp), rCur)
			if spec.ChainLoadEvery > 0 && g%spec.ChainLoadEvery == 0 {
				// Fold the loaded value into the dependence chain, the way
				// -O0 code reloads locals it just spilled; this puts data-
				// cache latency on the critical path.
				b.Op3(isa.OpAddq, chain, rScr, chain)
			}
		}
		if spec.ChaseEvery > 0 && g%spec.ChaseEvery == 0 {
			b.Mem(isa.OpLdq, rChase, 0, rChase)
		}
		b.Mem(isa.OpStq, chain, int64((g*24)%maxDisp), rCur)

		if sched.hotEvery > 0 && g%sched.hotEvery == sched.hotEvery-1 {
			emitHotWrite(b, spec)
		}
		if sched.w1Every > 0 && g%sched.w1Every == sched.w1Every-1 {
			b.Stmt()
			b.Mem(isa.OpLdq, rScr, 0, rW1)
			b.OpI(isa.OpAddq, rScr, 1, rScr)
			b.Mem(isa.OpStq, rScr, 0, rW1)
		}
		if sched.rngEvery > 0 && g%sched.rngEvery == sched.rngEvery-1 {
			emitRangeWrite(b)
		}
	}

	// vars[] round-robin write (Figure 6).
	if spec.VarsWrite {
		b.Stmt()
		b.OpI(isa.OpAddq, rVarOff, 8, rVarOff)
		b.OpI(isa.OpAnd, rVarOff, 120, rVarOff)
		b.Op3(isa.OpAddq, rVars, rVarOff, rScr)
		b.OpI(isa.OpSrl, rIter, int64(spec.VarsSilentShift), rScr2)
		b.Mem(isa.OpStq, rScr2, 0, rScr)
	}

	// Counter-driven rare writes.
	if sched.w1Period > 0 {
		b.Stmt()
		b.OpI(isa.OpSubq, rW1Cnt, 1, rW1Cnt)
		b.CondBr(isa.OpBne, rW1Cnt, "skip_w1")
		b.Mem(isa.OpLdq, rScr, 0, rW1)
		b.OpI(isa.OpAddq, rScr, 1, rScr)
		b.Mem(isa.OpStq, rScr, 0, rW1)
		b.Li32(rW1Cnt, int64(sched.w1Period))
		b.Label("skip_w1")
	}
	if sched.w2Period > 0 {
		b.Stmt()
		b.OpI(isa.OpSubq, rW2Cnt, 1, rW2Cnt)
		b.CondBr(isa.OpBne, rW2Cnt, "skip_w2")
		b.Mem(isa.OpLdq, rScr, 0, rW2)
		b.OpI(isa.OpAddq, rScr, 1, rScr)
		b.Mem(isa.OpStq, rScr, 0, rW2)
		b.Li32(rW2Cnt, int64(sched.w2Period))
		b.Label("skip_w2")
	}
	if sched.coldPeriod > 0 {
		b.Stmt()
		b.OpI(isa.OpSubq, rCldCnt, 1, rCldCnt)
		b.CondBr(isa.OpBne, rCldCnt, "skip_cold")
		b.Mem(isa.OpLdq, rScr, 0, rCold)
		b.OpI(isa.OpAddq, rScr, 1, rScr)
		b.Mem(isa.OpStq, rScr, 0, rCold)
		b.Li32(rCldCnt, int64(sched.coldPeriod))
		b.Label("skip_cold")
	}
	if sched.rngPeriod > 0 {
		b.Stmt()
		b.OpI(isa.OpSubq, rRngCnt, 1, rRngCnt)
		b.CondBr(isa.OpBne, rRngCnt, "skip_rng")
		emitRangeWrite(b)
		b.Li32(rRngCnt, int64(sched.rngPeriod))
		b.Label("skip_rng")
	}

	// Advance the store cursor across the buffer.
	b.Stmt()
	b.Li32(rScr, 4160) // a page plus a line: walks all buffer pages
	b.Op3(isa.OpAddq, rOff, rScr, rOff)
	b.Op3(isa.OpAnd, rOff, rMask, rOff)
	b.Op3(isa.OpAddq, rBuf, rOff, rCur)

	b.OpI(isa.OpSubq, rIter, 1, rIter)
	b.CondBr(isa.OpBne, rIter, "outer")
	b.Halt()
	b.Entry("main")

	p, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
	}
	return &Workload{
		Spec:    spec,
		Program: p,
		WP: Watchpoints{
			Hot:      p.MustSymbol("hot"),
			Warm1:    p.MustSymbol(w1Lbl),
			Warm2:    p.MustSymbol(w2Lbl),
			Cold:     p.MustSymbol(coldLbl),
			Ptr:      p.MustSymbol("ptr"),
			Range:    p.MustSymbol("range"),
			RangeLen: 256,
			Vars:     p.MustSymbol("vars"),
			VarsLen:  128,
		},
		StoresPerIter: sched.storesPerIter,
	}, nil
}

// MustBuild is Build for known-good specs.
func MustBuild(spec Spec, iterations int) *Workload {
	w, err := Build(spec, iterations)
	if err != nil {
		panic(err)
	}
	return w
}

// emitHotWrite writes the HOT scalar; the value advances once per
// 2^HotSilentShift writes, so the remaining writes are silent stores.
func emitHotWrite(b *asm.Builder, spec Spec) {
	b.Stmt()
	b.OpI(isa.OpAddq, rHotIdx, 1, rHotIdx)
	b.OpI(isa.OpSrl, rHotIdx, int64(spec.HotSilentShift), rScr)
	b.Mem(isa.OpStq, rScr, 0, rHot)
}

// emitRangeWrite stores a changing value into the next element of the
// 32-quad RANGE array.
func emitRangeWrite(b *asm.Builder) {
	b.OpI(isa.OpAddq, rRngOff, 8, rRngOff)
	b.OpI(isa.OpAnd, rRngOff, 248, rRngOff)
	b.Op3(isa.OpAddq, rRange, rRngOff, rScr)
	b.Mem(isa.OpStq, rOff, 0, rScr)
}

// schedule is the static/counter write plan for one kernel.
type schedule struct {
	storesPerIter int
	hotEvery      int // hot write after every N groups (static)
	w1Every       int // warm1 static period in groups (0 = counter-driven)
	rngEvery      int // range static period in groups
	w1Period      int // counter periods in iterations (0 = static or never)
	w2Period      int
	coldPeriod    int
	rngPeriod     int
}

// computeSchedule converts Table 2 frequencies (writes per 100K stores)
// into static in-body placements (for frequent watchpoints) or
// per-iteration countdown periods (for rare ones).
func computeSchedule(spec Spec) schedule {
	var s schedule
	base := spec.Groups + 4 // groups + locals
	if spec.VarsWrite {
		base++
	}
	stores := float64(base)
	var nHot, nW1, nRng int
	for pass := 0; pass < 3; pass++ {
		nHot = staticCount(spec.HotF, stores)
		nW1 = staticCount(spec.Warm1F, stores)
		nRng = staticCount(spec.RangeF, stores)
		stores = float64(base + nHot + nW1 + nRng)
	}
	s.storesPerIter = int(stores)
	every := func(n int) int {
		if n <= 0 {
			return 0
		}
		e := spec.Groups / n
		if e < 1 {
			e = 1
		}
		return e
	}
	s.hotEvery = every(nHot)
	s.w1Every = every(nW1)
	s.rngEvery = every(nRng)
	period := func(f float64, static int) int {
		if f <= 0 || static > 0 {
			return 0
		}
		p := math.Round(100000 / (f * stores))
		if p < 1 {
			p = 1
		}
		if p > 1<<30 {
			p = 1 << 30
		}
		return int(p)
	}
	s.w1Period = period(spec.Warm1F, nW1)
	s.w2Period = period(spec.Warm2F, 0)
	s.coldPeriod = period(spec.ColdF, 0)
	s.rngPeriod = period(spec.RangeF, nRng)
	return s
}

// staticCount returns how many writes per iteration a frequency needs, or
// 0 if it is rarer than one per iteration.
func staticCount(fPer100K, storesPerIter float64) int {
	if fPer100K <= 0 {
		return 0
	}
	n := fPer100K * storesPerIter / 100000
	if n < 1 {
		return 0
	}
	return int(math.Round(n))
}
