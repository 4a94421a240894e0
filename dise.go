// Package dise reproduces "Low-Overhead Interactive Debugging via Dynamic
// Instrumentation with DISE" (Corliss, Lewis & Roth, HPCA-11 2005) as a
// library: a cycle-level out-of-order processor simulator with a DISE
// (dynamic instruction stream editing) engine, an interactive debugger
// whose breakpoints and watchpoints can be implemented by single-stepping,
// virtual-memory page protection, hardware watchpoint registers, static
// binary rewriting, or DISE productions, and the paper's complete
// experiment suite (Tables 1-2, Figures 3-9).
//
// The top-level package is a facade over the internal packages:
//
//	internal/isa       instruction set (Alpha-like + DISE extensions)
//	internal/asm       assembler (text and builder APIs)
//	internal/mem       memory and page protection
//	internal/cache     cache/TLB/bus timing hierarchy
//	internal/bpred     branch prediction
//	internal/dise      the DISE engine (patterns, productions, registers)
//	internal/pipeline  the cycle-level out-of-order core
//	internal/machine   the composed simulated machine
//	internal/debug     the debugger and its five back ends
//	internal/rewrite   static binary transformation
//	internal/workload  the six SPEC2000-shaped benchmark kernels
//	internal/harness   experiment definitions and reporting
//	internal/serve     the concurrent debug service (sessions, machine
//	                   pooling, wire protocol; served by cmd/disesrv)
//
// Quick start:
//
//	prog, _ := dise.Assemble(src)
//	s, _ := dise.NewSession(prog, dise.BackendDise)
//	s.WatchScalar("counter", prog.MustSymbol("counter"), 8)
//	s.OnUser = func(ev dise.UserEvent) { fmt.Println("changed at", ev.PC) }
//	s.Run()
package dise

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/debug"
	"repro/internal/harness"
	"repro/internal/iwatcher"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Re-exported types: the facade uses aliases so that values flow freely
// between the public API and the internal packages.
type (
	// Program is an assembled, loadable program image.
	Program = asm.Program
	// Machine is the simulated processor.
	Machine = machine.Machine
	// MachineConfig aggregates core/cache/predictor/DISE configuration.
	MachineConfig = machine.Config
	// Stats are the core's run statistics.
	Stats = pipeline.Stats
	// Debugger attaches watchpoints and breakpoints to a machine.
	Debugger = debug.Debugger
	// Options selects and tunes a debugger back end.
	Options = debug.Options
	// Backend names a watchpoint/breakpoint implementation.
	Backend = debug.Backend
	// Watchpoint is a data breakpoint specification.
	Watchpoint = debug.Watchpoint
	// Breakpoint is a control breakpoint specification.
	Breakpoint = debug.Breakpoint
	// Condition is a watchpoint predicate.
	Condition = debug.Condition
	// BreakCond is a breakpoint predicate.
	BreakCond = debug.BreakCond
	// UserEvent describes one user transition.
	UserEvent = debug.UserEvent
	// TransitionStats is the paper's transition accounting.
	TransitionStats = debug.TransitionStats
	// BenchmarkSpec parameterizes one synthetic SPEC-shaped kernel.
	BenchmarkSpec = workload.Spec
	// Benchmark is a built kernel with its watchpoint addresses.
	Benchmark = workload.Workload
	// ExperimentConfig scales experiment runs.
	ExperimentConfig = harness.Config
	// ResultTable is one experiment's rows.
	ResultTable = harness.Table
)

// Back ends (paper §2 and §4).
const (
	BackendSingleStep    = debug.BackendSingleStep
	BackendVirtualMemory = debug.BackendVirtualMemory
	BackendHardwareReg   = debug.BackendHardwareReg
	BackendDise          = debug.BackendDise
	BackendBinaryRewrite = debug.BackendBinaryRewrite
)

// Watchpoint kinds.
const (
	WatchScalar   = debug.WatchScalar
	WatchIndirect = debug.WatchIndirect
	WatchRange    = debug.WatchRange
	WatchExpr     = debug.WatchExpr
)

// Condition operators.
const (
	CondEq = debug.CondEq
	CondNe = debug.CondNe
	CondLt = debug.CondLt
	CondGt = debug.CondGt
)

// Multi-watchpoint address-matching strategies (§4.2, Figure 6).
const (
	StrategySerial    = debug.StrategySerial
	StrategyBloomByte = debug.StrategyBloomByte
	StrategyBloomBit  = debug.StrategyBloomBit
)

// DISE replacement-sequence variants (Figure 7).
const (
	VariantMatchAddrEval  = debug.VariantMatchAddrEval
	VariantEvalExpr       = debug.VariantEvalExpr
	VariantMatchAddrValue = debug.VariantMatchAddrValue
)

// Assemble assembles the textual assembly dialect (see internal/asm for
// the syntax).
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// NewMachine builds a simulator with the paper's §5 configuration.
func NewMachine() *Machine { return machine.NewDefault() }

// NewMachineWith builds a simulator with a custom configuration.
func NewMachineWith(cfg MachineConfig) *Machine { return machine.New(cfg) }

// DefaultMachineConfig returns the paper's machine configuration.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// MachinePresets lists the named machine configurations (default,
// small-cache, big-l2, no-bpred, narrow-core) shared by the CLI tools
// and the debug service's per-session machine selection.
func MachinePresets() []string { return machine.Presets() }

// MachinePresetConfig resolves a preset name to its configuration.
func MachinePresetConfig(name string) (MachineConfig, bool) { return machine.PresetConfig(name) }

// DefaultOptions returns the paper's defaults for a debugger back end.
func DefaultOptions(b Backend) Options { return debug.DefaultOptions(b) }

// ParseBackend resolves a short back-end selector name (dise, vm, hw,
// step, rewrite), shared by the CLI and the debug service.
func ParseBackend(name string) (Backend, bool) { return debug.ParseBackend(name) }

// Benchmarks returns the six SPEC2000-shaped kernel specs (paper Table 1).
func Benchmarks() []BenchmarkSpec { return workload.Specs() }

// BuildBenchmark builds a named kernel with the given outer-loop
// iteration count.
func BuildBenchmark(name string, iterations int) (*Benchmark, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("dise: unknown benchmark %q", name)
	}
	return workload.Build(spec, iterations)
}

// Experiments lists the available experiment IDs (table1..fig9).
func Experiments() []string { return harness.Experiments() }

// RunExperiment runs one of the paper's experiments and returns its table.
func RunExperiment(id string, cfg ExperimentConfig) (*ResultTable, error) {
	return harness.Run(id, cfg)
}

// RunAllExperiments runs the full evaluation in paper order.
func RunAllExperiments(cfg ExperimentConfig) []*ResultTable {
	return harness.RunAll(cfg)
}

// The concurrent debug service: many independent sessions multiplexed
// over a pool of recycled machines and a fixed set of scheduler workers,
// with a line-delimited JSON wire protocol (see internal/serve and
// cmd/disesrv).
type (
	// Server multiplexes debug sessions over pooled machines.
	Server = serve.Server
	// ServeConfig sizes a Server (workers, quantum, session cap, queue
	// depth, push buffers).
	ServeConfig = serve.Config
	// ServeSessionConfig carries per-session creation parameters (the
	// session's machine configuration).
	ServeSessionConfig = serve.SessionConfig
	// ServeSession is one session in a Server.
	ServeSession = serve.Session
	// ServeEvent is one entry in a session's event queue.
	ServeEvent = serve.Event
	// ServeSubscription streams a session's events as they fire.
	ServeSubscription = serve.Subscription
	// MachinePoolSet recycles machines of many configurations, keyed by
	// machine configuration under one shared idle budget.
	MachinePoolSet = serve.PoolSet
)

// ErrServerOverloaded is returned by ServeSession.Continue when the
// queue depth's worth of sessions is runnable already.
var ErrServerOverloaded = serve.ErrOverloaded

// NewServer builds a debug service and starts its workers.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// DefaultServeConfig returns the default service configuration.
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// NewMachinePoolSet builds a multi-configuration pool keeping at most
// capacity idle machines in total.
func NewMachinePoolSet(capacity int) *MachinePoolSet { return serve.NewPoolSet(capacity) }

// Monitor is an iWatcher-style programmatic monitoring interface built on
// DISE productions (§6): programs register memory regions and in-
// application callback functions that run on writes, with no process
// switch.
type Monitor = iwatcher.Watcher

// NewMonitor creates a programmatic monitor for a loaded machine.
func NewMonitor(m *Machine) *Monitor { return iwatcher.New(m) }
