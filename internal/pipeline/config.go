// Package pipeline implements the cycle-level out-of-order core the
// paper's evaluation runs on (§5): a dynamically scheduled 4-way
// superscalar with a 12-stage pipeline, 128-entry reorder buffer, 80
// reservation stations, hybrid branch prediction, and a DISE engine
// between fetch and the execution engine.
//
// Simulation style: the functional architectural state advances in program
// order as instructions are fetched (wrong paths are never executed), and
// an event-driven timing model computes per-instruction fetch, dispatch,
// issue, completion, and commit cycles subject to bandwidth, dependence,
// occupancy, and port constraints. Control-flow and DISE-induced pipeline
// flushes stall fetch until the redirecting instruction resolves, which is
// how the paper's flush costs for DISE branches and calls arise. Each uop
// is timed in one pass (Core.time, after exec), fetch through commit, on
// tables the core holds by value; debugger hooks receive their events by
// value, so a hooked step allocates nothing.
//
// Load/store-queue model: every store enters a store queue at dispatch
// and stays live until its commit cycle, when it drains to the D-cache. A
// load overlapping a live store forwards from the queue (containment at
// the store's data-ready cycle, partial overlap at its commit); a load
// issued after the overlapping store's commit probes the cache hierarchy
// like any other. The queue keeps an occupancy counter and conservative
// address bounds so the common searches — empty queue, fully drained
// queue, or a disjoint load — cost O(1) (see storeRec in core.go).
//
// Timing-core bookkeeping keeps only what can still affect a future
// decision. The fetch, dispatch, and commit slots see non-decreasing
// request streams, so each is a (cycle, count) cursor — the newest booked
// cycle is the only one a request can still reach. The function units
// and load ports keep a ring over absolute cycles, grown whenever a
// reservation would overwrite a live entry so it never aliases, and book
// by probing upward from the earliest cycle (see booking.go). The
// ROB/RS/LSQ occupancy rings admit a uop the cycle after their oldest
// occupant releases; they start zero-filled and keep no fill count, as a
// 0 release never binds. The store queue keeps an occupancy count, a
// next-drain edge (storeQMaxCommit), and address bounds that answer most
// searches without a scan, and the fetch path keeps line- and
// page-granular windows (lastFetchLine, the predecoder's fetch window).
// Config.LinearTiming swaps the cursors and the store-queue filters for
// their linear references; the differential property tests prove both
// produce bit-identical cycles and statistics.
package pipeline

import (
	"repro/internal/isa"
)

// Config describes the core. Defaults follow the paper's §5 simulator.
type Config struct {
	Width         int // fetch/dispatch/issue/commit width
	ROBSize       int
	RSSize        int
	LSQSize       int
	FrontEndDepth int // cycles between fetch and dispatch readiness

	IntALUs    int
	IntMuls    int
	MulLatency int
	LoadPorts  int

	// MTDiseCalls enables the §4 multithreading optimization: DISE-called
	// function bodies run on a spare thread context, eliminating the
	// call/return pipeline flushes (evaluated in Figure 8).
	MTDiseCalls bool

	// MaxUops bounds a run as a safety net against runaway programs.
	MaxUops uint64

	// LinearTiming selects the retained linear-reference timing paths:
	// fetch, dispatch, and commit book on reference rings probed cycle by
	// cycle instead of on cursors, and store-queue searches scan every
	// entry instead of consulting the occupancy count, drain edge, and
	// address bounds. Cycle counts and Stats are bit-identical to the
	// default — the differential property tests assert exactly that — so
	// the only reason to set it is as the oracle in those tests.
	LinearTiming bool
}

// DefaultConfig returns the paper's core configuration.
func DefaultConfig() Config {
	return Config{
		Width:         4,
		ROBSize:       128,
		RSSize:        80,
		LSQSize:       64,
		FrontEndDepth: 6, // 12-stage pipe: half of it is in front of dispatch
		IntALUs:       4,
		IntMuls:       1,
		MulLatency:    7,
		LoadPorts:     2,
		MaxUops:       2_000_000_000,
	}
}

// StoreEvent describes an architecturally executed store, delivered to the
// debugger hook just after the memory write.
type StoreEvent struct {
	PC     uint64
	DisePC int
	Addr   uint64
	Size   int
	InDise bool // store issued from a replacement sequence or DISE function
}

// TrapEvent describes an executed trap-class instruction (trap, brk, or a
// ctrap whose condition held).
type TrapEvent struct {
	PC     uint64
	DisePC int
	Op     isa.Op
	Code   int64
	InDise bool
}

// Hooks connects the core to the debugger. Nil members are skipped, so an
// undebugged run pays nothing. Each hook returns the stall in cycles to
// charge at the instruction's commit: 0 for free events (user transitions)
// and the debugger-transition cost for spurious ones. Events pass by
// value: a hook that keeps one keeps its own copy, and the step that
// raises it allocates nothing.
type Hooks struct {
	// OnStore runs for every store, just after memory is written.
	OnStore func(StoreEvent) uint64
	// OnInst runs for every application instruction (DISEPC 0, outside
	// DISE functions); the single-stepping back end uses it.
	OnInst func(pc uint64) uint64
	// OnTrap runs for executed trap instructions.
	OnTrap func(TrapEvent) uint64
}

// Stats aggregates a run.
type Stats struct {
	Cycles uint64

	AppInsts  uint64 // committed application instructions (DISEPC 0, non-function)
	DiseUops  uint64 // committed replacement-sequence instructions
	FuncInsts uint64 // committed instructions of DISE-called functions
	Stores    uint64 // application stores
	Loads     uint64 // application loads

	Expansions uint64

	BranchMispredicts uint64
	DiseBranchFlushes uint64
	DiseCallFlushes   uint64 // call + return flushes
	TrapStallCycles   uint64
	Traps             uint64 // traps that charged a stall
	FreeTraps         uint64 // traps charged as free (user transitions)

	// Predecoded-text (software code cache) behavior.
	PredecodeHits          uint64 // fetches served from an already-decoded page
	PredecodePageDecodes   uint64 // text pages decoded (cold or after a drop)
	PredecodeEvictions     uint64 // pages dropped by the LRU cap
	PredecodeInvalidations uint64 // pages dropped because a store touched them

	// Decoded-uop dispatch amortization, across both resolution sites
	// (predecoded text pages and DISE replacement sequences). A "hit" is
	// a dispatch served from an already-resolved micro-op — a predecoded
	// page fetch, a literal replacement slot, or a T.INST trigger copy; a
	// "resolve" is one micro-op resolution — page-fill slots
	// (instsPerPage per page decode), misaligned fetches, and the
	// trigger-parameterized replacement slots of each expansion, counted
	// per expansion as an engine without the expansion memo resolves
	// them. UopInvalidations counts pre-resolved micro-ops discarded
	// because a store touched their text page.
	UopHits          uint64
	UopResolves      uint64
	UopInvalidations uint64

	HaltPC uint64
	Halted bool
}

// IPC returns committed application instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.AppInsts) / float64(s.Cycles)
}

// PredecodeHitRate returns the fraction of page-cache lookups served
// without decoding a page.
func (s Stats) PredecodeHitRate() float64 {
	total := s.PredecodeHits + s.PredecodePageDecodes
	if total == 0 {
		return 0
	}
	return float64(s.PredecodeHits) / float64(total)
}

// UopReuseRate returns the fraction of dispatched micro-ops served from
// an already-resolved uop — the decode-amortization figure of merit.
func (s Stats) UopReuseRate() float64 {
	total := s.UopHits + s.UopResolves
	if total == 0 {
		return 0
	}
	return float64(s.UopHits) / float64(total)
}

// StoreDensity returns application stores per application instruction.
func (s Stats) StoreDensity() float64 {
	if s.AppInsts == 0 {
		return 0
	}
	return float64(s.Stores) / float64(s.AppInsts)
}
