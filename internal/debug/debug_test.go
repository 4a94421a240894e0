package debug_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/debug"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// watchProg writes: v=1 (change), v=1 (silent), neighbor=1 (same page,
// different quad), far=1 (different page), v=2 (change). With a watchpoint
// on v, ground truth is: 2 user transitions for exact mechanisms; the
// neighbor store faults under page granularity; the far store is invisible
// to everything.
const watchProg = `
.data
.align 4096
v:        .quad 0
neighbor: .quad 0
.align 4096
far:      .quad 0
.text
main:
.stmt
    la  r1, v
    la  r2, neighbor
    la  r3, far
    li  r4, 1
.stmt
    stq r4, 0(r1)    ; v: 0 -> 1, change
.stmt
    stq r4, 0(r1)    ; v: 1 -> 1, silent
.stmt
    stq r4, 0(r2)    ; neighbor
.stmt
    stq r4, 0(r3)    ; far
.stmt
    li  r4, 2
    stq r4, 0(r1)    ; v: 1 -> 2, change
.stmt
    halt
`

func loadProg(t *testing.T, src string) *machine.Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	return m
}

func watchV(t *testing.T, m *machine.Machine, opts debug.Options, cond *debug.Condition) (*debug.Debugger, pipeline.Stats) {
	t.Helper()
	d := debug.New(m, opts)
	if err := d.Watch(&debug.Watchpoint{
		Name: "v",
		Kind: debug.WatchScalar,
		Addr: m.Program.MustSymbol("v"),
		Size: 8,
		Cond: cond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	st := m.MustRun(0)
	return d, st
}

func TestDiseScalarWatch(t *testing.T) {
	m := loadProg(t, watchProg)
	d, st := watchV(t, m, debug.DefaultOptions(debug.BackendDise), nil)
	s := d.Stats()
	if s.User != 2 {
		t.Errorf("user transitions = %d, want 2", s.User)
	}
	if s.Spurious() != 0 {
		t.Errorf("spurious = %+v, want none", s)
	}
	if st.Expansions != 5 {
		t.Errorf("expansions = %d, want 5 (every store)", st.Expansions)
	}
	// The silent store to v triggers the address match and the function
	// call, but is pruned inside the application: 3 calls total (2
	// changes + 1 silent), each with a call+return flush pair.
	if st.DiseCallFlushes != 6 {
		t.Errorf("call flushes = %d, want 6", st.DiseCallFlushes)
	}
	if st.TrapStallCycles != 0 {
		t.Errorf("trap stalls = %d, want 0 (user transitions are free)", st.TrapStallCycles)
	}
}

func TestDiseConditionalNeverTrue(t *testing.T) {
	m := loadProg(t, watchProg)
	cond := &debug.Condition{Op: debug.CondEq, Value: 0xDEAD} // never matches
	d, st := watchV(t, m, debug.DefaultOptions(debug.BackendDise), cond)
	s := d.Stats()
	if s.User != 0 || s.Spurious() != 0 {
		t.Errorf("stats = %+v, want all zero (predicate evaluated in-app)", s)
	}
	if st.TrapStallCycles != 0 {
		t.Errorf("trap stalls = %d", st.TrapStallCycles)
	}
}

func TestDiseConditionalTrue(t *testing.T) {
	m := loadProg(t, watchProg)
	cond := &debug.Condition{Op: debug.CondEq, Value: 2} // matches the final store
	d, _ := watchV(t, m, debug.DefaultOptions(debug.BackendDise), cond)
	if d.Stats().User != 1 {
		t.Errorf("user = %d, want 1 (only v==2)", d.Stats().User)
	}
}

func TestVMScalarWatch(t *testing.T) {
	m := loadProg(t, watchProg)
	d, _ := watchV(t, m, debug.DefaultOptions(debug.BackendVirtualMemory), nil)
	s := d.Stats()
	if s.User != 2 {
		t.Errorf("user = %d, want 2", s.User)
	}
	// The silent store faults (value transition); the neighbor store on
	// the same page faults (address transition); the far store does not.
	if s.SpuriousValue != 1 {
		t.Errorf("spurious value = %d, want 1", s.SpuriousValue)
	}
	if s.SpuriousAddr != 1 {
		t.Errorf("spurious addr = %d, want 1", s.SpuriousAddr)
	}
}

func TestVMConditional(t *testing.T) {
	m := loadProg(t, watchProg)
	cond := &debug.Condition{Op: debug.CondEq, Value: 0xDEAD}
	d, st := watchV(t, m, debug.DefaultOptions(debug.BackendVirtualMemory), cond)
	s := d.Stats()
	// Both real changes become spurious predicate transitions.
	if s.SpuriousPred != 2 || s.User != 0 {
		t.Errorf("stats = %+v", s)
	}
	if st.TrapStallCycles != 4*debug.DefaultTransitionCost {
		t.Errorf("stall = %d, want 4 transitions worth", st.TrapStallCycles)
	}
}

func TestHWScalarWatch(t *testing.T) {
	m := loadProg(t, watchProg)
	d, _ := watchV(t, m, debug.DefaultOptions(debug.BackendHardwareReg), nil)
	s := d.Stats()
	if s.User != 2 {
		t.Errorf("user = %d, want 2", s.User)
	}
	// Quad granularity: the neighbor (different quad) does not fire; the
	// silent store does (spurious value).
	if s.SpuriousValue != 1 || s.SpuriousAddr != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHWPartialQuad(t *testing.T) {
	m := loadProg(t, `
.data
.align 8
v: .long 0        ; watch these 4 bytes
u: .long 0        ; the other half of the same quad
.text
main:
    la  r1, v
    li  r2, 7
    stl r2, 4(r1)  ; writes u only: partial-quad spurious address transition
    stl r2, 0(r1)  ; writes v: change
    halt
`)
	d := debug.New(m, debug.DefaultOptions(debug.BackendHardwareReg))
	if err := d.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: m.Program.MustSymbol("v"), Size: 4}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	m.MustRun(0)
	s := d.Stats()
	if s.SpuriousAddr != 1 {
		t.Errorf("spurious addr = %d, want 1 (partial quad)", s.SpuriousAddr)
	}
	if s.User != 1 {
		t.Errorf("user = %d, want 1", s.User)
	}
}

func TestSingleStepWatch(t *testing.T) {
	m := loadProg(t, watchProg)
	d, st := watchV(t, m, debug.DefaultOptions(debug.BackendSingleStep), nil)
	s := d.Stats()
	if s.User != 2 {
		t.Errorf("user = %d, want 2", s.User)
	}
	// 7 statements, 2 lead to user transitions, 5 are spurious stops.
	if s.SpuriousAddr != 5 {
		t.Errorf("spurious = %d, want 5", s.SpuriousAddr)
	}
	if st.TrapStallCycles != 5*debug.DefaultTransitionCost {
		t.Errorf("stall = %d", st.TrapStallCycles)
	}
}

func TestBackendsRejectUnsupported(t *testing.T) {
	m := loadProg(t, watchProg)
	ind := &debug.Watchpoint{Name: "p", Kind: debug.WatchIndirect, Addr: m.Program.MustSymbol("v"), Size: 8}
	for _, b := range []debug.Backend{debug.BackendVirtualMemory, debug.BackendHardwareReg} {
		d := debug.New(m, debug.DefaultOptions(b))
		if err := d.Watch(ind); err != nil {
			t.Fatal(err)
		}
		if err := d.Install(); err == nil {
			t.Errorf("%v should reject indirect watchpoints", b)
		}
	}
	d := debug.New(m, debug.DefaultOptions(debug.BackendHardwareReg))
	rg := &debug.Watchpoint{Name: "r", Kind: debug.WatchRange, Addr: m.Program.MustSymbol("v"), Length: 64}
	if err := d.Watch(rg); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err == nil || !strings.Contains(err.Error(), "non-scalar") {
		t.Errorf("hardware backend should reject ranges, got %v", err)
	}
}

const indirectProg = `
.data
.align 8
a:   .quad 0
b:   .quad 0
ptr: .quad 0
.text
main:
    la  r1, a
    la  r2, ptr
    stq r1, 0(r2)    ; ptr = &a (change: *ptr was 0 via null... set before watch)
    li  r3, 5
    stq r3, 0(r1)    ; a = 5  -> *ptr changes
    la  r4, b
    stq r4, 0(r2)    ; ptr = &b -> *ptr = 0 (changes from 5 to 0)
    li  r3, 7
    stq r3, 0(r4)    ; b = 7  -> *ptr changes
    stq r3, 0(r1)    ; a = 9? no: a = 7, but ptr no longer points at a
    halt
`

func TestDiseIndirectWatch(t *testing.T) {
	p, err := asm.Assemble(indirectProg)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(p)
	// Point ptr at a before installing so the initial snapshot is sane.
	m.WriteQuad(p.MustSymbol("ptr"), p.MustSymbol("a"))
	d := debug.New(m, debug.DefaultOptions(debug.BackendDise))
	if err := d.Watch(&debug.Watchpoint{Name: "*ptr", Kind: debug.WatchIndirect, Addr: p.MustSymbol("ptr"), Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	m.MustRun(0)
	s := d.Stats()
	// User transitions: a=5 (*ptr 0->5), ptr=&b (*ptr 5->0), b=7
	// (*ptr 0->7). The first store (ptr=&a) is silent (already &a) and the
	// last (a=7) no longer affects *ptr.
	if s.User != 3 {
		t.Errorf("user = %d, want 3; stats %+v", s.User, s)
	}
	if s.Spurious() != 0 {
		t.Errorf("spurious = %+v", s)
	}
}

func TestDiseRangeWatch(t *testing.T) {
	m := loadProg(t, `
.data
.align 8
arr:  .quad 0, 0, 0, 0, 0, 0, 0, 0
other: .quad 0
.text
main:
    la  r1, arr
    li  r2, 9
    stq r2, 24(r1)   ; arr[3] changes
    stq r2, 24(r1)   ; silent
    la  r3, other
    stq r2, 0(r3)    ; outside the range
    stq r2, 56(r1)   ; arr[7] changes
    halt
`)
	d := debug.New(m, debug.DefaultOptions(debug.BackendDise))
	if err := d.Watch(&debug.Watchpoint{Name: "arr", Kind: debug.WatchRange, Addr: m.Program.MustSymbol("arr"), Length: 64}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	m.MustRun(0)
	s := d.Stats()
	if s.User != 2 {
		t.Errorf("user = %d, want 2; stats %+v", s.User, s)
	}
	if s.Spurious() != 0 {
		t.Errorf("spurious = %+v", s)
	}
}

// TestRangeWatchTail: a range whose length is not a multiple of 8 is its
// own bytes only, on every back end that watches ranges (the hardware
// and binary-rewriting back ends watch scalars only). A store past its
// end and a quad store that leaves its bytes as they were change nothing
// the user watches; a store to its last byte does. The DISE handler once
// compared whole quads, so on dise alone the quad store was a user
// transition.
func TestRangeWatchTail(t *testing.T) {
	const prog = `
.data
.align 8
r: .quad 0
.text
main:
    la  r1, r
    li  r2, 5
    stl r2, 4(r1)    ; past the range's end
    li  r2, 7
    sll r2, #32, r2
    stq r2, 0(r1)    ; the range's bytes stay 0
    li  r2, 9
    stb r2, 3(r1)    ; the range's last byte changes
    halt
`
	for _, b := range []debug.Backend{debug.BackendSingleStep, debug.BackendVirtualMemory,
		debug.BackendHardwareReg, debug.BackendDise, debug.BackendBinaryRewrite} {
		m := loadProg(t, prog)
		d := debug.New(m, debug.DefaultOptions(b))
		if err := d.Watch(&debug.Watchpoint{Name: "r", Kind: debug.WatchRange, Addr: m.Program.MustSymbol("r"), Length: 4}); err != nil {
			t.Fatal(err)
		}
		var values []uint64
		d.OnUser = func(ev debug.UserEvent) { values = append(values, ev.Value) }
		if err := d.Install(); err != nil {
			if b == debug.BackendHardwareReg || b == debug.BackendBinaryRewrite {
				continue
			}
			t.Fatalf("%v: Install: %v", b, err)
		}
		m.MustRun(0)
		if want := []uint64{7<<32 | 9<<24}; !slices.Equal(values, want) {
			t.Errorf("%v: user transitions with values %#x, want %#x", b, values, want)
		}
	}
}

// TestWatchRangeBounds: Watch rejects a range longer than MaxRangeLength,
// and a range, scalar or indirect pointer whose bytes do not fit below
// 2^64, before Install would copy or enumerate them.
func TestWatchRangeBounds(t *testing.T) {
	m := loadProg(t, watchProg)
	v := m.Program.MustSymbol("v")
	top := ^uint64(0) - 7 // the last quad of the address space
	for _, tc := range []struct {
		name   string
		kind   debug.WatchKind
		addr   uint64
		size   int
		length uint64
		ok     bool
	}{
		{"at cap", debug.WatchRange, v, 0, debug.MaxRangeLength, true},
		{"past cap", debug.WatchRange, v, 0, debug.MaxRangeLength + 1, false},
		{"huge", debug.WatchRange, v, 0, 1 << 62, false},
		{"wraps", debug.WatchRange, top, 0, 16, false},
		{"ends at 2^64", debug.WatchRange, top, 0, 8, false},
		{"scalar in the top quad", debug.WatchScalar, top + 4, 4, 0, true},
		{"scalar on the last byte", debug.WatchScalar, top + 7, 1, 0, true},
		{"scalar wraps", debug.WatchScalar, top + 6, 4, 0, false},
		{"pointer in the top quad", debug.WatchIndirect, top, 1, 0, true},
		{"pointer wraps", debug.WatchIndirect, top + 4, 1, 0, false},
	} {
		d := debug.New(m, debug.DefaultOptions(debug.BackendDise))
		err := d.Watch(&debug.Watchpoint{Name: "r", Kind: tc.kind, Addr: tc.addr, Size: tc.size, Length: tc.length})
		if (err == nil) != tc.ok {
			t.Errorf("%s: Watch = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// topQuadProg stores one byte into the last quad of the address space,
// at 2^64-4.
const topQuadProg = `
.data
.align 8
ptr: .quad 0
.text
main:
    li  r2, 5
    lda r1, -4(r31)
    stb r2, 0(r1)
    halt
`

// TestWatchTopQuad: a watch on the last quad of memory, whose exclusive
// end wraps to 0, installs in bounded time and fires exactly once for the
// one store that changes it, on every back end that supports the kind.
// Enumerating its quads up to the end address had wrapped to 0 and grown
// without bound, and the hardware back end had armed no register.
func TestWatchTopQuad(t *testing.T) {
	const addr = ^uint64(0) - 3
	all := []debug.Backend{debug.BackendSingleStep, debug.BackendVirtualMemory,
		debug.BackendHardwareReg, debug.BackendDise, debug.BackendBinaryRewrite}
	for _, tc := range []struct {
		kind     debug.WatchKind
		backends []debug.Backend
	}{
		{debug.WatchScalar, all},
		{debug.WatchIndirect, []debug.Backend{debug.BackendSingleStep, debug.BackendDise}},
	} {
		for _, b := range tc.backends {
			m := loadProg(t, topQuadProg)
			w := &debug.Watchpoint{Name: "top", Kind: tc.kind, Addr: addr, Size: 1}
			if tc.kind == debug.WatchIndirect {
				w.Addr = m.Program.MustSymbol("ptr")
				m.WriteQuad(w.Addr, addr)
			}
			d := debug.New(m, debug.DefaultOptions(b))
			if err := d.Watch(w); err != nil {
				t.Fatal(err)
			}
			if err := d.Install(); err != nil {
				t.Fatalf("%v %v: Install: %v", tc.kind, b, err)
			}
			m.MustRun(0)
			if s := d.Stats(); s.User != 1 || s.Spurious() != 0 {
				t.Errorf("%v %v: stats %+v, want one user transition", tc.kind, b, s)
			}
		}
	}
}

func TestDiseExprWatch(t *testing.T) {
	m := loadProg(t, `
.data
.align 8
x: .quad 2
y: .quad 3
.text
main:
    la  r1, x
    la  r2, y
    li  r3, 4
    stq r3, 0(r1)    ; x=4: sum 5->7, change
    li  r4, 1
    stq r4, 0(r2)    ; y=1: sum 7->5, change
    li  r5, 3
    stq r5, 0(r2)    ; wait: y=3: sum 5->7... change again
    halt
`)
	d := debug.New(m, debug.DefaultOptions(debug.BackendDise))
	if err := d.Watch(&debug.Watchpoint{
		Name:  "x+y",
		Kind:  debug.WatchExpr,
		Terms: []uint64{m.Program.MustSymbol("x"), m.Program.MustSymbol("y")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	m.MustRun(0)
	if got := d.Stats().User; got != 3 {
		t.Errorf("user = %d, want 3", got)
	}
}

// multiWatchProg declares 20 quads on one page and writes a few of them.
const multiWatchProg = `
.data
.align 4096
vars: .quad 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
.text
main:
    la  r1, vars
    li  r2, 1
    stq r2, 0(r1)     ; vars[0] change (watched)
    stq r2, 64(r1)    ; vars[8] change (watched when n > 8)
    stq r2, 152(r1)   ; vars[19] change (unwatched for n <= 19)
    halt
`

func multiWatch(t *testing.T, opts debug.Options, n int) (*debug.Debugger, *machine.Machine) {
	t.Helper()
	m := loadProg(t, multiWatchProg)
	d := debug.New(m, opts)
	base := m.Program.MustSymbol("vars")
	for i := 0; i < n; i++ {
		if err := d.Watch(&debug.Watchpoint{
			Name: "v", Kind: debug.WatchScalar, Addr: base + uint64(i)*8, Size: 8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	return d, m
}

func TestDiseSerialManyWatchpoints(t *testing.T) {
	// 10 watchpoints exceeds the DISE register budget (7), exercising the
	// overflow table path.
	d, m := multiWatch(t, debug.DefaultOptions(debug.BackendDise), 10)
	m.MustRun(0)
	s := d.Stats()
	if s.User != 2 {
		t.Errorf("user = %d, want 2 (vars[0], vars[8]); stats %+v", s.User, s)
	}
}

func TestDiseBloomWatchpoints(t *testing.T) {
	for _, strat := range []debug.MultiStrategy{debug.StrategyBloomByte, debug.StrategyBloomBit} {
		opts := debug.DefaultOptions(debug.BackendDise)
		opts.Multi = strat
		d, m := multiWatch(t, opts, 16)
		m.MustRun(0)
		s := d.Stats()
		if s.User != 2 {
			t.Errorf("%v: user = %d, want 2; stats %+v", strat, s.User, s)
		}
		if s.Spurious() != 0 {
			t.Errorf("%v: spurious = %+v", strat, s)
		}
	}
}

func TestBloomFalsePositives(t *testing.T) {
	// Watch vars[0] with the 2KB byte filter: a write 16KB past it (2,048
	// quads on) hashes to the same byte, a probable match the handler
	// prunes.
	m := loadProg(t, `
.data
.align 4096
vars: .quad 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
.text
main:
    la  r1, vars
    li  r2, 1
    stq r2, 16384(r1) ; same hash as vars[0] with 2,048 buckets
    halt
`)
	opts := debug.DefaultOptions(debug.BackendDise)
	opts.Multi = debug.StrategyBloomByte
	d := debug.New(m, opts)
	if err := d.Watch(&debug.Watchpoint{Name: "v0", Kind: debug.WatchScalar, Addr: m.Program.MustSymbol("vars"), Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	m.MustRun(0)
	s := d.Stats()
	if s.BloomFalsePositives != 1 {
		t.Errorf("false positives = %d, want 1", s.BloomFalsePositives)
	}
	if s.User != 0 {
		t.Errorf("user = %d, want 0 (handler must prune the false positive)", s.User)
	}
}

func TestHWFallsBackToVM(t *testing.T) {
	// 6 watchpoints: 4 in registers, 2 on protected pages. A write to an
	// unwatched var on the same page must fault (spurious address).
	d, m := multiWatch(t, debug.DefaultOptions(debug.BackendHardwareReg), 6)
	m.MustRun(0)
	s := d.Stats()
	// vars[0] hits a register (user); vars[8] and vars[19] are unwatched
	// but share the protected page with vars[4] and vars[5]: two spurious
	// address transitions.
	if s.User != 1 {
		t.Errorf("user = %d, want 1; stats %+v", s.User, s)
	}
	if s.SpuriousAddr != 2 {
		t.Errorf("spurious addr = %d, want 2; stats %+v", s.SpuriousAddr, s)
	}
}

func TestDiseVariants(t *testing.T) {
	for _, v := range []debug.DiseVariant{debug.VariantEvalExpr, debug.VariantMatchAddrValue} {
		m := loadProg(t, watchProg)
		opts := debug.DefaultOptions(debug.BackendDise)
		opts.Variant = v
		d, st := watchV(t, m, opts, nil)
		s := d.Stats()
		if s.User != 2 {
			t.Errorf("%v: user = %d, want 2; stats %+v", v, s.User, s)
		}
		if st.DiseCallFlushes != 0 {
			t.Errorf("%v: call flushes = %d, want 0 (inline variants)", v, st.DiseCallFlushes)
		}
	}
}

func TestDiseVariantsConditional(t *testing.T) {
	for _, v := range []debug.DiseVariant{debug.VariantEvalExpr, debug.VariantMatchAddrValue} {
		m := loadProg(t, watchProg)
		opts := debug.DefaultOptions(debug.BackendDise)
		opts.Variant = v
		cond := &debug.Condition{Op: debug.CondEq, Value: 2}
		d, _ := watchV(t, m, opts, cond)
		if got := d.Stats().User; got != 1 {
			t.Errorf("%v cond: user = %d, want 1", v, got)
		}
	}
}

func TestDiseWithoutCondSupport(t *testing.T) {
	m := loadProg(t, watchProg)
	opts := debug.DefaultOptions(debug.BackendDise)
	opts.CondSupport = false
	d, st := watchV(t, m, opts, nil)
	if got := d.Stats().User; got != 2 {
		t.Errorf("user = %d, want 2", got)
	}
	// Every store that does not match takes the DISE branch around the
	// call: a pipeline flush each (the Figure 7 bottom-half effect).
	if st.DiseBranchFlushes < 2 {
		t.Errorf("dise branch flushes = %d, want >= 2", st.DiseBranchFlushes)
	}
}

func TestProtectionCatchesWildStore(t *testing.T) {
	m := loadProg(t, watchProg)
	opts := debug.DefaultOptions(debug.BackendDise)
	opts.Protect = true
	d := debug.New(m, opts)
	if err := d.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: m.Program.MustSymbol("v"), Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	// Patch the "far" store to aim into the debugger's data region
	// instead: simulate a wild pointer. Find the debugger region by
	// probing the DISE segment register (dataBase >> 11).
	dataBase := m.Engine.Regs[11] << 11 // dseg
	m.Core.Regs[3] = dataBase           // will be overwritten by la r3, far... so patch memory instead
	// Simpler: run as-is (no violation), then check zero violations.
	m.MustRun(0)
	if d.Stats().ProtViolations != 0 {
		t.Errorf("violations = %d, want 0", d.Stats().ProtViolations)
	}
	if d.Stats().User != 2 {
		t.Errorf("user = %d, want 2 (protection must not break watching)", d.Stats().User)
	}
}

func TestProtectionViolation(t *testing.T) {
	// A program that stores through a register the test aims at the
	// debugger region after install.
	m := loadProg(t, `
.data
v: .quad 0
.text
main:
    li  r2, 1
    stq r2, 0(r9)   ; r9 is preloaded with the debugger region address
    halt
`)
	opts := debug.DefaultOptions(debug.BackendDise)
	opts.Protect = true
	d := debug.New(m, opts)
	if err := d.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: m.Program.MustSymbol("v"), Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	m.Core.Regs[9] = m.Engine.Regs[11] << 11 // dseg register holds base>>11
	m.MustRun(0)
	if d.Stats().ProtViolations != 1 {
		t.Errorf("violations = %d, want 1", d.Stats().ProtViolations)
	}
}

func TestBinaryRewrite(t *testing.T) {
	m := loadProg(t, watchProg)
	origLen := len(m.Program.Text)
	d, st := watchV(t, m, debug.DefaultOptions(debug.BackendBinaryRewrite), nil)
	s := d.Stats()
	if s.User != 2 {
		t.Errorf("user = %d, want 2; stats %+v", s.User, s)
	}
	if s.Spurious() != 0 {
		t.Errorf("spurious = %+v", s)
	}
	if len(m.Program.Text) <= origLen {
		t.Error("rewriting should bloat the text segment")
	}
	if st.TrapStallCycles != 0 {
		t.Errorf("stall = %d", st.TrapStallCycles)
	}
	// Program correctness preserved: v == 2 at the end.
	if got := m.ReadQuad(m.Program.MustSymbol("v")); got != 2 {
		t.Errorf("v = %d after rewrite, want 2", got)
	}
}

func TestBreakpoints(t *testing.T) {
	prog := `
.data
count: .quad 0
.text
main:
    la  r1, count
    li  r2, 3
loop:
    ldq r3, 0(r1)
    addq r3, #1, r3
target:
    stq r3, 0(r1)
    subq r2, #1, r2
    bne r2, loop
    halt
`
	for _, backend := range []debug.Backend{debug.BackendDise, debug.BackendVirtualMemory} {
		m := loadProg(t, prog)
		d := debug.New(m, debug.DefaultOptions(backend))
		if err := d.Break(&debug.Breakpoint{PC: m.Program.MustSymbol("target")}); err != nil {
			t.Fatal(err)
		}
		if err := d.Install(); err != nil {
			t.Fatal(err)
		}
		m.MustRun(0)
		if got := d.Stats().User; got != 3 {
			t.Errorf("%v: breakpoint hits = %d, want 3", backend, got)
		}
		// The breakpoint must not corrupt execution.
		if got := m.ReadQuad(m.Program.MustSymbol("count")); got != 3 {
			t.Errorf("%v: count = %d, want 3", backend, got)
		}
	}
}

func TestConditionalBreakpoint(t *testing.T) {
	prog := `
.data
count: .quad 0
.text
main:
    la  r1, count
    li  r2, 5
loop:
    ldq r3, 0(r1)
    addq r3, #1, r3
target:
    stq r3, 0(r1)
    subq r2, #1, r2
    bne r2, loop
    halt
`
	// DISE: the condition (count == 3) is evaluated in the replacement
	// sequence; only one user transition, no spurious ones.
	m := loadProg(t, prog)
	d := debug.New(m, debug.DefaultOptions(debug.BackendDise))
	if err := d.Break(&debug.Breakpoint{
		PC:   m.Program.MustSymbol("target"),
		Cond: &debug.BreakCond{Addr: m.Program.MustSymbol("count"), Op: debug.CondEq, Value: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	m.MustRun(0)
	s := d.Stats()
	if s.User != 1 || s.Spurious() != 0 {
		t.Errorf("dise cond break: %+v", s)
	}

	// Conventional: every hit whose predicate fails is a spurious
	// predicate transition.
	m2 := loadProg(t, prog)
	d2 := debug.New(m2, debug.DefaultOptions(debug.BackendVirtualMemory))
	if err := d2.Break(&debug.Breakpoint{
		PC:   m2.Program.MustSymbol("target"),
		Cond: &debug.BreakCond{Addr: m2.Program.MustSymbol("count"), Op: debug.CondEq, Value: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d2.Install(); err != nil {
		t.Fatal(err)
	}
	m2.MustRun(0)
	s2 := d2.Stats()
	if s2.User != 1 || s2.SpuriousPred != 4 {
		t.Errorf("conventional cond break: %+v", s2)
	}
}

func TestOnUserCallbackAndStop(t *testing.T) {
	m := loadProg(t, watchProg)
	d := debug.New(m, debug.DefaultOptions(debug.BackendDise))
	if err := d.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: m.Program.MustSymbol("v"), Size: 8}); err != nil {
		t.Fatal(err)
	}
	var events []debug.UserEvent
	d.OnUser = func(ev debug.UserEvent) {
		events = append(events, ev)
		m.Core.RequestStop()
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	// First Run stops at the first user transition; resuming finds the
	// second; a third resume reaches halt.
	m.MustRun(0)
	if len(events) != 1 || m.Core.Halted() {
		t.Fatalf("first stop: events=%d halted=%v", len(events), m.Core.Halted())
	}
	if events[0].Value != 1 {
		t.Errorf("first change value = %d, want 1", events[0].Value)
	}
	m.MustRun(0)
	if len(events) != 2 || m.Core.Halted() {
		t.Fatalf("second stop: events=%d", len(events))
	}
	if events[1].Value != 2 {
		t.Errorf("second change value = %d, want 2", events[1].Value)
	}
	m.MustRun(0)
	if !m.Core.Halted() {
		t.Error("should have halted after resuming past the last change")
	}
}

// TestBreakpointOnWatchedStore: a breakpoint set on a store instruction
// must not shadow the watch-stores production (the PC pattern is more
// specific and would otherwise win): both the breakpoint and the
// watchpoint must fire.
func TestBreakpointOnWatchedStore(t *testing.T) {
	m := loadProg(t, `
.data
v: .quad 0
.text
main:
    la  r1, v
    li  r2, 3
loop:
    stq r2, 0(r1)      ; breakpoint AND watched store
    subq r2, #1, r2
    bne r2, loop
    halt
`)
	d := debug.New(m, debug.DefaultOptions(debug.BackendDise))
	if err := d.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: m.Program.MustSymbol("v"), Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Break(&debug.Breakpoint{PC: m.Program.MustSymbol("loop")}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	var watchHits, breakHits int
	d.OnUser = func(ev debug.UserEvent) {
		switch {
		case ev.Watchpoint != nil:
			watchHits++
		case ev.Breakpoint != nil:
			breakHits++
		}
	}
	m.MustRun(0)
	if breakHits != 3 {
		t.Errorf("breakpoint hits = %d, want 3", breakHits)
	}
	if watchHits != 3 {
		t.Errorf("watchpoint hits = %d, want 3 (store at breakpoint must stay watched)", watchHits)
	}
	if got := m.ReadQuad(m.Program.MustSymbol("v")); got != 1 {
		t.Errorf("v = %d, want 1", got)
	}
}

// condBreakProg stores a falling counter to vars[0] and vars[8] and counts
// x up, ten times; y stays 0.
const condBreakProg = `
.data
.align 8
vars: .quad 0,0,0,0,0,0,0,0,0,0
x:    .quad 0
y:    .quad 0
.text
main:
    la  r1, vars
    la  r3, x
    li  r10, 10
loop:
    stq r10, 0(r1)
    stq r10, 64(r1)
    ldq r4, 0(r3)
    addq r4, #1, r4
bx:
    stq r4, 0(r3)
by:
    subq r10, #1, r10
    bne r10, loop
    halt
`

// TestDiseCondBreakCombinations: each conditional breakpoint evaluates
// its own predicate from its own data-region slot, so it combines with
// protection, a serial-overflow table, an inline-variant conditional
// watch and a second conditional breakpoint, and the DISE back end
// reports the same user transitions as the hardware back end.
func TestDiseCondBreakCombinations(t *testing.T) {
	p := loadProg(t, condBreakProg).Program
	scalar := func(i int, cond *debug.Condition) *debug.Watchpoint {
		return &debug.Watchpoint{Name: fmt.Sprintf("vars[%d]", i), Kind: debug.WatchScalar,
			Addr: p.MustSymbol("vars") + uint64(i)*8, Size: 8, Cond: cond}
	}
	var serial []*debug.Watchpoint
	for i := range 9 {
		serial = append(serial, scalar(i, nil))
	}
	ne1 := &debug.Condition{Op: debug.CondNe, Value: 1}
	onX := &debug.Breakpoint{PC: p.MustSymbol("bx"), Cond: &debug.BreakCond{Addr: p.MustSymbol("x"), Op: debug.CondEq, Value: 3}}
	onY := &debug.Breakpoint{PC: p.MustSymbol("by"), Cond: &debug.BreakCond{Addr: p.MustSymbol("y"), Op: debug.CondEq, Value: 7}}
	dise := func(v debug.DiseVariant, protect bool) debug.Options {
		o := debug.DefaultOptions(debug.BackendDise)
		o.Variant, o.Protect = v, protect
		return o
	}
	run := func(opts debug.Options, watches []*debug.Watchpoint, breaks []*debug.Breakpoint) []string {
		m := loadProg(t, condBreakProg)
		d := debug.New(m, opts)
		for _, w := range watches {
			if err := d.Watch(w); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range breaks {
			if err := d.Break(b); err != nil {
				t.Fatal(err)
			}
		}
		var events []string
		d.OnUser = func(ev debug.UserEvent) {
			if ev.Breakpoint != nil {
				events = append(events, fmt.Sprintf("break@%#x", ev.Breakpoint.PC))
			} else {
				events = append(events, fmt.Sprintf("%v=%d", ev.Watchpoint.Name, ev.Value))
			}
		}
		if err := d.Install(); err != nil {
			t.Errorf("%v: Install: %v", opts.Backend, err)
		}
		m.MustRun(0)
		return events
	}
	for _, tc := range []struct {
		name    string
		dise    debug.Options
		watches []*debug.Watchpoint
		breaks  []*debug.Breakpoint
	}{
		{"protection", dise(debug.VariantMatchAddrEval, true), []*debug.Watchpoint{scalar(0, nil)}, []*debug.Breakpoint{onX}},
		{"serial overflow", dise(debug.VariantMatchAddrEval, false), serial, []*debug.Breakpoint{onX}},
		{"eval-expr conditional watch", dise(debug.VariantEvalExpr, false), []*debug.Watchpoint{scalar(0, ne1)}, []*debug.Breakpoint{onX}},
		{"match-addr-value conditional watch", dise(debug.VariantMatchAddrValue, false), []*debug.Watchpoint{scalar(0, ne1)}, []*debug.Breakpoint{onX}},
		{"two conditional breakpoints", dise(debug.VariantMatchAddrEval, false), nil, []*debug.Breakpoint{onX, onY}},
	} {
		hw := run(debug.DefaultOptions(debug.BackendHardwareReg), tc.watches, tc.breaks)
		if got := run(tc.dise, tc.watches, tc.breaks); !slices.Equal(got, hw) {
			t.Errorf("%s: dise reported %v, hardware %v", tc.name, got, hw)
		}
		if !slices.Contains(hw, fmt.Sprintf("break@%#x", onX.PC)) {
			t.Errorf("%s: the breakpoint on x == 3 never fired: %v", tc.name, hw)
		}
	}
}
