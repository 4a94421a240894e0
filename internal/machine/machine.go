// Package machine composes the simulated processor: core, memory
// hierarchy, branch predictor, DISE engine, and program loading. It is the
// thing a debugger attaches to and the thing experiments run.
package machine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/dise"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// Config aggregates the subsystem configurations.
type Config struct {
	Core  pipeline.Config
	Cache cache.HierarchyConfig
	Bpred bpred.Config
	Dise  dise.Config
}

// DefaultConfig matches the paper's §5 simulated machine.
func DefaultConfig() Config {
	return Config{
		Core:  pipeline.DefaultConfig(),
		Cache: cache.DefaultConfig(),
		Bpred: bpred.DefaultConfig(),
		Dise:  dise.DefaultConfig(),
	}
}

// Config presets: the §5 sweep axes as named machine configurations, so a
// debug service can multiplex heterogeneous sessions (and a CLI user can
// pick a machine) without spelling out a full Config. The registry is
// fixed at build time; Config values themselves remain fully open.
var presetNames = []string{"default", "small-cache", "big-l2", "no-bpred", "narrow-core"}

// Presets returns the preset names, "default" first.
func Presets() []string {
	out := make([]string, len(presetNames))
	copy(out, presetNames)
	return out
}

// PresetConfig resolves a preset name to its configuration.
func PresetConfig(name string) (Config, bool) {
	cfg := DefaultConfig()
	switch name {
	case "default":
	case "small-cache":
		// Pressure the memory system: 8KB L1s, 256KB L2, 16-entry TLBs.
		cfg.Cache.L1I.SizeBytes = 8 << 10
		cfg.Cache.L1D.SizeBytes = 8 << 10
		cfg.Cache.L2.SizeBytes = 256 << 10
		cfg.Cache.TLBEntries = 16
	case "big-l2":
		// Generous second level: 4MB 8-way.
		cfg.Cache.L2.SizeBytes = 4 << 20
		cfg.Cache.L2.Assoc = 8
	case "no-bpred":
		// Degenerate single-entry predictor tables: effectively static
		// not-taken prediction, exposing flush-bound behavior.
		cfg.Bpred = bpred.Config{PredEntries: 1, HistoryBits: 0, BTBEntries: 1, BTBAssoc: 1, RASEntries: 1}
	case "narrow-core":
		// A 2-wide core with half-size windows and one load port.
		cfg.Core.Width = 2
		cfg.Core.ROBSize = 32
		cfg.Core.RSSize = 20
		cfg.Core.LSQSize = 16
		cfg.Core.IntALUs = 2
		cfg.Core.LoadPorts = 1
	default:
		return Config{}, false
	}
	return cfg, true
}

// PresetName returns the name of the preset whose configuration equals
// cfg, or "" when none does.
func PresetName(cfg Config) string {
	for _, name := range presetNames {
		if pc, _ := PresetConfig(name); pc == cfg {
			return name
		}
	}
	return ""
}

// Machine is one simulated processor plus its loaded program.
type Machine struct {
	Cfg     Config
	Core    *pipeline.Core
	Mem     *mem.Memory
	Engine  *dise.Engine
	Hier    *cache.Hierarchy
	Program *asm.Program

	textAppend uint64 // next free address for AppendText
	dataAppend uint64 // next free address for AppendData
}

// New builds an empty machine.
func New(cfg Config) *Machine {
	m := mem.New()
	hier := cache.NewHierarchy(cfg.Cache)
	bp := bpred.New(cfg.Bpred)
	eng := dise.NewEngine(cfg.Dise)
	core := pipeline.New(cfg.Core, m, hier, bp, eng)
	return &Machine{Cfg: cfg, Core: core, Mem: m, Engine: eng, Hier: hier}
}

// NewDefault builds a machine with the paper's configuration.
func NewDefault() *Machine { return New(DefaultConfig()) }

// Reset returns the machine to its freshly-constructed state so it can be
// recycled for another program: memory is dropped, the cache/TLB/bus
// hierarchy, branch predictor, and DISE engine are cleared, the core
// (including debugger hooks and page protections) is rewound, and the
// program and its append cursors are forgotten. A recycled machine is
// bit-identical to a machine.New with the same Config, as observed
// through Stats, MemStats, engine and predictor statistics, and
// architectural state — the property internal/serve's pool relies on and
// its tests verify.
func (m *Machine) Reset() {
	m.Mem.Reset()
	m.Hier.Reset()
	m.Core.BP.Reset()
	m.Engine.Reset()
	m.Core.Reset()
	m.Program = nil
	m.textAppend, m.dataAppend = 0, 0
}

// Load puts a program image into memory, initializes the stack pointer,
// and sets the entry point. Text is copied in by one write; Data is
// mapped (mem.MapImage), so its whole pages are shared with the program
// and copied only when the program first writes them. p's Text and Data
// must not change after Finish: the machine, and any State taken from
// it, share them.
func (m *Machine) Load(p *asm.Program) {
	m.Program = p
	m.Mem.WriteBytes(p.TextBase, textBytes(p.Text))
	m.Mem.MapImage(p.DataBase, p.Data)
	m.Core.Regs[30] = asm.DefaultStackTop // sp
	m.Core.SetPC(p.Entry)
}

// Run executes until halt or the application-instruction budget.
func (m *Machine) Run(maxAppInsts uint64) (pipeline.Stats, error) {
	if m.Program == nil {
		return pipeline.Stats{}, fmt.Errorf("machine: no program loaded")
	}
	err := m.Core.Run(maxAppInsts)
	return m.Core.Stats(), err
}

// MustRun is Run for tests and experiments with known-good programs.
func (m *Machine) MustRun(maxAppInsts uint64) pipeline.Stats {
	st, err := m.Run(maxAppInsts)
	if err != nil {
		panic(err)
	}
	return st
}

// MemStats aggregates the memory-system statistics surfaces so reports
// and harness tables can show cache and bus behavior alongside the core's
// pipeline.Stats.
type MemStats struct {
	L1I, L1D, L2  cache.Stats
	ITLB, DTLB    cache.Stats
	BusBusyCycles uint64
}

// MemStats snapshots the hierarchy's statistics.
func (m *Machine) MemStats() MemStats {
	return MemStats{
		L1I:           m.Hier.L1I.Stats(),
		L1D:           m.Hier.L1D.Stats(),
		L2:            m.Hier.L2.Stats(),
		ITLB:          m.Hier.ITLB.Stats(),
		DTLB:          m.Hier.DTLB.Stats(),
		BusBusyCycles: m.Hier.BusBusyCycles,
	}
}

// ReadQuad reads an 8-byte value from simulated memory (debugger
// convenience).
func (m *Machine) ReadQuad(addr uint64) uint64 { return m.Mem.Read(addr, 8) }

// WriteQuad writes an 8-byte value to simulated memory.
func (m *Machine) WriteQuad(addr, v uint64) { m.Mem.Write(addr, 8, v) }

// NextTextAppend returns the address the next AppendText call will use,
// so callers can assemble position-dependent code before appending it.
func (m *Machine) NextTextAppend() uint64 {
	if m.textAppend == 0 {
		return m.Program.TextEnd() + 64
	}
	return m.textAppend
}

// AppendText appends encoded instructions after the current text segment
// and returns their base address. The debugger uses this to install its
// dynamically generated expression-evaluation function (paper §4.2).
func (m *Machine) AppendText(words []uint32) uint64 {
	if m.textAppend == 0 {
		// Leave a small guard gap so straight-line app code cannot run
		// into the appended function.
		m.textAppend = m.Program.TextEnd() + 64
	}
	base := m.textAppend
	m.Mem.WriteBytes(base, textBytes(words))
	m.textAppend = base + uint64(len(words))*4 + 64
	return base
}

// textBytes encodes instruction words as memory holds them, so a caller
// stores any number of words in one write and the write hooks see one
// range.
func textBytes(words []uint32) []byte {
	b := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return b
}

// AppendData appends bytes after the current data segment, page-aligned,
// and returns their base address. The debugger's watched-address tables,
// previous-value slots, and Bloom filters live here (paper §4.2).
func (m *Machine) AppendData(b []byte) uint64 {
	if m.dataAppend == 0 {
		// Skip one page so debugger data never shares a page with app
		// data; the protection experiment (Figure 9) relies on the
		// debugger region being distinct.
		m.dataAppend = ((m.Program.DataEnd()+mem.PageSize-1)&^(mem.PageSize-1) + mem.PageSize)
	}
	base := m.dataAppend
	m.Mem.WriteBytes(base, b)
	m.dataAppend = (base + uint64(len(b)) + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if m.dataAppend == base {
		m.dataAppend += mem.PageSize
	}
	return base
}
