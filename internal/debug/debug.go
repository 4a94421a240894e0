// Package debug implements the paper's contribution: interactive-debugger
// breakpoints and watchpoints (conditional and unconditional) over the
// simulated machine, with five interchangeable implementations:
//
//   - SingleStep: trap to the debugger at every source statement (§2).
//   - VirtualMemory: write-protect the pages holding watched data (§2).
//   - HardwareReg: four quad-granular hardware watchpoint registers, with
//     virtual-memory fallback beyond four (§2, §5.3).
//   - BinaryRewrite: statically inline the check sequence at every store
//     (§2, Figure 5).
//   - Dise: dynamically expand every store with a check sequence via the
//     DISE engine — the paper's proposal (§4).
//
// The package also implements the paper's transition accounting: debugger
// transitions that lead to user interaction are free; spurious address,
// value, and predicate transitions cost a round trip of 100,000 cycles
// (§5).
package debug

import (
	"fmt"

	"repro/internal/machine"
)

// DefaultTransitionCost is the modeled cost in cycles of one spurious
// application→debugger→application round trip. The paper measured 290K
// (gdb) and 513K (Visual Studio) cycles and conservatively models 100K.
const DefaultTransitionCost = 100_000

// Backend selects a watchpoint/breakpoint implementation.
type Backend int

// Available implementations.
const (
	BackendSingleStep Backend = iota
	BackendVirtualMemory
	BackendHardwareReg
	BackendDise
	BackendBinaryRewrite
)

var backendNames = [...]string{"single-step", "virtual-memory", "hardware", "dise", "binary-rewrite"}

func (b Backend) String() string {
	if int(b) < len(backendNames) {
		return backendNames[b]
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// backendByShortName maps the short selector names the CLI and the wire
// protocol share.
var backendByShortName = map[string]Backend{
	"dise":    BackendDise,
	"vm":      BackendVirtualMemory,
	"hw":      BackendHardwareReg,
	"step":    BackendSingleStep,
	"rewrite": BackendBinaryRewrite,
}

// ParseBackend resolves a short back-end selector (dise, vm, hw, step,
// rewrite) — the single source of truth for every front end, so the CLI
// and the debug service cannot drift on accepted names.
func ParseBackend(name string) (Backend, bool) {
	b, ok := backendByShortName[name]
	return b, ok
}

// DiseVariant selects the replacement-sequence organization (Figure 7).
type DiseVariant int

// DISE replacement-sequence variants.
const (
	// VariantMatchAddrEval matches the store address in the replacement
	// sequence and calls the debugger-generated function to re-evaluate
	// the expression on a match (Figures 2c/2d). The paper's default.
	VariantMatchAddrEval DiseVariant = iota
	// VariantEvalExpr re-evaluates the watched expression inline in the
	// replacement sequence with a load (Figures 2a/2b).
	VariantEvalExpr
	// VariantMatchAddrValue matches both the store address and the stored
	// value against the watched scalar's previous value; usable only for
	// same-size scalar watchpoints (Figure 7).
	VariantMatchAddrValue
)

var variantNames = [...]string{"match-addr/eval-expr", "eval-expr/-", "match-addr-value/-"}

func (v DiseVariant) String() string {
	if int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// MultiStrategy selects the multi-watchpoint address-matching strategy
// (§4.2 "Watching multiple addresses", Figure 6).
type MultiStrategy int

// Multi-watchpoint strategies.
const (
	// StrategySerial compares the store address against each watched
	// address in turn; sequence length grows with the watch set.
	StrategySerial MultiStrategy = iota
	// StrategyBloomByte hashes store addresses into a 2KB byte array; a
	// set byte means probable match and triggers the function call.
	StrategyBloomByte
	// StrategyBloomBit hashes into bits, eight times the effective array
	// size at the cost of two extra bit operations.
	StrategyBloomBit
)

var strategyNames = [...]string{"serial-address-match", "bytewise-bloom", "bitwise-bloom"}

func (s MultiStrategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Options configures a Debugger.
type Options struct {
	Backend Backend

	// DISE-specific knobs.
	Variant     DiseVariant
	Multi       MultiStrategy
	CondSupport bool // conditional trap/call available (Figure 7 top vs bottom)
	Protect     bool // §4 protection of embedded debugger data (Figure 9)
	StackGating bool // pattern-specificity optimization: skip sp-based stores

	// BreakWithCodewords selects §4.1's first breakpoint scheme for
	// unconditional breakpoints: the breakpoint instruction is statically
	// replaced by a DISE codeword whose production traps and then executes
	// the original instruction. The default uses PC patterns (the
	// breakpoint-register analogue), which leaves the text untouched.
	BreakWithCodewords bool
}

// DefaultOptions returns the paper's default configuration for a backend.
func DefaultOptions(b Backend) Options {
	return Options{
		Backend:     b,
		Variant:     VariantMatchAddrEval,
		Multi:       StrategySerial,
		CondSupport: true,
	}
}

// WatchKind is the shape of a watched expression.
type WatchKind int

// Watchpoint kinds (§5: scalar, indirect/dereference, and range/array;
// Expr is the "complex expression" extension: a sum of scalars).
const (
	WatchScalar WatchKind = iota
	WatchIndirect
	WatchRange
	WatchExpr
)

var kindNames = [...]string{"scalar", "indirect", "range", "expr"}

func (k WatchKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// CondOp compares the watched expression's value to a constant.
type CondOp int

// Condition operators.
const (
	CondEq CondOp = iota
	CondNe
	CondLt
	CondGt
)

// Condition is an optional watchpoint/breakpoint predicate. The user is
// invoked only when the trigger fires and the predicate holds.
type Condition struct {
	Op    CondOp
	Value uint64
}

// Eval applies the predicate to an expression value.
func (c *Condition) Eval(v uint64) bool {
	switch c.Op {
	case CondEq:
		return v == c.Value
	case CondNe:
		return v != c.Value
	case CondLt:
		return int64(v) < int64(c.Value)
	case CondGt:
		return int64(v) > int64(c.Value)
	}
	return false
}

// MaxRangeLength caps a range watchpoint's length in bytes. The debugger
// copies the whole region at Install and on every check, and the length
// reaches Watch from clients unchecked, so without a cap one request
// could allocate without bound. The paper's kernels watch 256 bytes.
const MaxRangeLength = 1 << 20

// Watchpoint is a data breakpoint specification.
type Watchpoint struct {
	Name string
	Kind WatchKind

	// Addr is the watched variable's address (scalar), the pointer
	// variable's address (indirect), the region base (range), or unused
	// (expr).
	Addr uint64
	// Size is the scalar size in bytes (scalar/indirect target).
	Size int
	// Length is the region length in bytes (range).
	Length uint64
	// Terms are the scalar addresses of a complex expression (expr); its
	// value is their sum.
	Terms []uint64

	Cond *Condition
}

// Breakpoint is a control breakpoint specification.
type Breakpoint struct {
	PC   uint64
	Cond *BreakCond
}

// BreakCond is a conditional-breakpoint predicate over one memory scalar.
type BreakCond struct {
	Addr  uint64 // scalar to inspect (8 bytes)
	Op    CondOp
	Value uint64
}

// TransitionStats is the paper's §2 accounting.
type TransitionStats struct {
	User          uint64 // masked by user interaction: free
	SpuriousAddr  uint64
	SpuriousValue uint64
	SpuriousPred  uint64

	// BloomFalsePositives counts probable-match function calls whose
	// precise check failed (DISE Bloom strategies only). They are not
	// debugger transitions — the generated function prunes them inside
	// the application.
	BloomFalsePositives uint64

	// ProtViolations counts stores caught by the §4 protection production.
	ProtViolations uint64
}

// Spurious returns the total spurious (costed) transitions.
func (t TransitionStats) Spurious() uint64 {
	return t.SpuriousAddr + t.SpuriousValue + t.SpuriousPred
}

// UserEvent describes one user transition, delivered to the session
// callback (the interactive front end).
type UserEvent struct {
	PC         uint64
	Watchpoint *Watchpoint // nil for breakpoints
	Breakpoint *Breakpoint // nil for watchpoints
	Value      uint64      // watched expression value after the change
}

// Debugger attaches breakpoints and watchpoints to a machine using the
// selected backend. Create with New, add watch/breakpoints, then call
// Install before running the machine.
type Debugger struct {
	m    *machine.Machine
	opts Options

	watchpoints []*Watchpoint
	breakpoints []*Breakpoint

	// OnUser, when set, is invoked at every user transition (session
	// control would pass to the human here).
	OnUser func(UserEvent)

	stats TransitionStats

	// Go-side previous values for the classifying backends.
	prevScalar map[*Watchpoint]uint64
	prevRegion map[*Watchpoint][]byte

	// traps maps the PC of each trap in generated check code (DISE or
	// binary rewriting) to the watchpoint it reports, fixed at Install.
	traps map[uint64]*Watchpoint

	installed bool
	dise      *diseState

	scoped                bool
	scopeEntry, scopeExit uint64
}

// New creates a debugger for m.
func New(m *machine.Machine, opts Options) *Debugger {
	return &Debugger{
		m:          m,
		opts:       opts,
		prevScalar: make(map[*Watchpoint]uint64),
		prevRegion: make(map[*Watchpoint][]byte),
		traps:      make(map[uint64]*Watchpoint),
	}
}

// Options returns the debugger's options.
func (d *Debugger) Options() Options { return d.opts }

// Stats returns transition statistics.
func (d *Debugger) Stats() TransitionStats { return d.stats }

// Watch registers a watchpoint. Must be called before Install.
func (d *Debugger) Watch(w *Watchpoint) error {
	if d.installed {
		return fmt.Errorf("debug: Watch after Install")
	}
	if w.Kind == WatchScalar || w.Kind == WatchIndirect {
		if w.Size <= 0 || w.Size > 8 {
			return fmt.Errorf("debug: watchpoint %q has bad size %d", w.Name, w.Size)
		}
		// A scalar's own bytes are its value; an indirect watch's are the
		// 8-byte pointer. Neither may run past the end of memory.
		span := uint64(w.Size)
		if w.Kind == WatchIndirect {
			span = 8
		}
		if w.Addr+span-1 < w.Addr {
			return fmt.Errorf("debug: watchpoint %q at %#x wraps past the end of memory", w.Name, w.Addr)
		}
	}
	if w.Kind == WatchRange {
		switch {
		case w.Length == 0:
			return fmt.Errorf("debug: range watchpoint %q has zero length", w.Name)
		case w.Length > MaxRangeLength:
			return fmt.Errorf("debug: range watchpoint %q length %d exceeds %d bytes", w.Name, w.Length, MaxRangeLength)
		case w.Addr+w.Length < w.Addr:
			return fmt.Errorf("debug: range watchpoint %q at %#x wraps past the end of memory", w.Name, w.Addr)
		}
	}
	if w.Kind == WatchExpr && len(w.Terms) == 0 {
		return fmt.Errorf("debug: expression watchpoint %q has no terms", w.Name)
	}
	d.watchpoints = append(d.watchpoints, w)
	return nil
}

// Break registers a breakpoint, at most one per PC. Must be called before
// Install.
func (d *Debugger) Break(b *Breakpoint) error {
	if d.installed {
		return fmt.Errorf("debug: Break after Install")
	}
	if d.bpAt(b.PC) != nil {
		return fmt.Errorf("debug: a breakpoint is already set at %#x", b.PC)
	}
	d.breakpoints = append(d.breakpoints, b)
	return nil
}

// Install wires the chosen backend into the machine. After Install the
// machine can run; the debugger observes it through hooks, productions,
// page protections, or rewritten text depending on the backend.
func (d *Debugger) Install() error {
	if d.installed {
		return fmt.Errorf("debug: double Install")
	}
	d.snapshotPrev()
	var err error
	switch d.opts.Backend {
	case BackendSingleStep:
		err = d.installSingleStep()
	case BackendVirtualMemory:
		err = d.installVirtualMemory()
	case BackendHardwareReg:
		err = d.installHardwareReg()
	case BackendDise:
		err = d.installDise()
	case BackendBinaryRewrite:
		err = d.installBinaryRewrite()
	default:
		err = fmt.Errorf("debug: unknown backend %v", d.opts.Backend)
	}
	if err == nil {
		d.installed = true
	}
	return err
}

// snapshotPrev records the initial value of every watched expression.
func (d *Debugger) snapshotPrev() {
	for _, w := range d.watchpoints {
		switch w.Kind {
		case WatchRange:
			d.prevRegion[w] = d.m.Mem.ReadBytes(w.Addr, int(w.Length))
		default:
			d.prevScalar[w] = d.evalExpr(w)
		}
	}
}

// user records a user transition and fires the session callback.
func (d *Debugger) user(ev UserEvent) {
	d.stats.User++
	if d.OnUser != nil {
		d.OnUser(ev)
	}
}
