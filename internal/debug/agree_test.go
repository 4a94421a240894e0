package debug_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/debug"
	"repro/internal/machine"
)

// An agreeCase is one FuzzBackendsAgree input: a loop of stores into a
// 128-byte area, a watchpoint set over the area and up to two
// breakpoints. The area holds four 16-byte scalar slots (0-63), a pointer
// target (64-79) and a range (80-127). A scalar slot may hold several
// watchpoints, which then may share a quad or the same bytes.
type agreeCase struct {
	iters   uint8 // loop iterations, 1..16
	dise    uint8 // DISE options, see options
	stores  []agreeStore
	watches []agreeWatch
	breaks  []agreeBreak
}

// agreeStore stores r10&mask (the loop counter, falling to 1) into the area
// at a running offset: off += stride each iteration, modulo 128, aligned
// down to the store's size (1<<size bytes).
type agreeStore struct{ size, off, stride, mask uint8 }

// agreeWatch watches slot 0-3 (a scalar), 4 (the target of an indirect
// watch through ptr) or 5 (the range). For a scalar or the target, shape
// gives the size (1<<(shape&3)) and the offset in the slot, which may
// straddle two quads; for the range, the length, 1..48 bytes.
type agreeWatch struct{ slot, shape, cond uint8 }

// agreeBreak breaks at the instruction at index pc (modulo the text
// length); a non-zero cond tests the area quad at index quad.
type agreeBreak struct{ pc, cond, quad uint8 }

// A cond byte is 0 for none, or encodes op (bits 1-2) and a constant 0..31
// (bits 3-7), with bit 0 set.
func agreeCond(b uint8) (debug.CondOp, uint64, bool) {
	return debug.CondOp(b >> 1 & 3), uint64(b >> 3), b&1 != 0
}

func (c agreeCase) encode() []byte {
	out := []byte{c.iters - 1, c.dise, uint8(len(c.stores) - 1)}
	for _, s := range c.stores {
		out = append(out, s.size, s.off, s.stride, s.mask)
	}
	out = append(out, uint8(len(c.watches)))
	for _, w := range c.watches {
		out = append(out, w.slot, w.shape, w.cond)
	}
	out = append(out, uint8(len(c.breaks)))
	for _, b := range c.breaks {
		out = append(out, b.pc, b.cond, b.quad)
	}
	return out
}

func decodeAgree(in []byte) agreeCase {
	next := func() uint8 {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	c := agreeCase{iters: 1 + next()%16, dise: next()}
	for range 1 + next()%4 {
		c.stores = append(c.stores, agreeStore{size: next() % 4, off: next() % 128, stride: next() % 128, mask: next() % 128})
	}
	used := map[uint8]bool{}
	for range next() % 4 {
		w := agreeWatch{slot: next() % 6, shape: next(), cond: next()}
		if w.slot < 4 || !used[w.slot] {
			used[w.slot] = true
			c.watches = append(c.watches, w)
		}
	}
	for range next() % 3 {
		c.breaks = append(c.breaks, agreeBreak{pc: next(), cond: next(), quad: next() % 16})
	}
	return c
}

var storeOps = [4]string{"stb", "stw", "stl", "stq"}

// program assembles the loop, with a statement at every instruction.
func (c agreeCase) program() (*asm.Program, error) {
	var sb strings.Builder
	sb.WriteString(".data\n.align 8\narea: .space 128\nptr: .quad 0\n.text\nmain:\n")
	inst := func(format string, args ...any) {
		fmt.Fprintf(&sb, ".stmt\n    "+format+"\n", args...)
	}
	inst("la r1, area")
	inst("li r10, %d", c.iters)
	for j, s := range c.stores {
		inst("li r%d, %d", 11+j, s.off)
	}
	// Each store's address goes to r16+j and its value to r20+j, and the
	// stores then run back to back.
	sb.WriteString("loop:\n")
	for j, s := range c.stores {
		r := 11 + j
		inst("addq r%d, #%d, r%d", r, s.stride, r)
		inst("and r%d, #127, r%d", r, r)
		inst("and r%d, #%d, r%d", r, 127&^(1<<s.size-1), 16+j)
		inst("addq r%d, r1, r%d", 16+j, 16+j)
		inst("and r10, #%d, r%d", s.mask, 20+j)
	}
	for j, s := range c.stores {
		inst("%s r%d, 0(r%d)", storeOps[s.size], 20+j, 16+j)
	}
	inst("subq r10, #1, r10")
	inst("bne r10, loop")
	inst("halt")
	return asm.Assemble(sb.String())
}

// watchpoint builds the case's i'th watchpoint, w, over the program's
// area, setting ptr for an indirect watch.
func (w agreeWatch) watchpoint(m *machine.Machine, i int) *debug.Watchpoint {
	area := m.Program.MustSymbol("area")
	size := 1 << (w.shape & 3)
	off := uint64(w.shape>>2) % uint64(17-size)
	wp := &debug.Watchpoint{Name: fmt.Sprintf("w%d.slot%d", i, w.slot), Kind: debug.WatchScalar, Addr: area + 16*uint64(w.slot) + off, Size: size}
	switch w.slot {
	case 4:
		// The DISE back end tracks an indirect target in one quad, so the
		// target is naturally aligned.
		wp.Kind = debug.WatchIndirect
		wp.Addr = m.Program.MustSymbol("ptr")
		m.WriteQuad(wp.Addr, area+64+off&^uint64(size-1))
	case 5:
		wp.Kind, wp.Addr, wp.Size = debug.WatchRange, area+80, 0
		wp.Length = 1 + uint64(w.shape)%48
	}
	if op, v, ok := agreeCond(w.cond); ok {
		wp.Cond = &debug.Condition{Op: op, Value: v}
	}
	return wp
}

// options applies the case's DISE options: the variant, the
// multi-watchpoint strategy, conditional trap/call support, protection
// and codeword breakpoints. The match-address-value variant is used only
// when every store is a quad store, the same-size stores it assumes.
func (c agreeCase) options(b debug.Backend) debug.Options {
	opts := debug.DefaultOptions(b)
	if b != debug.BackendDise {
		return opts
	}
	opts.Variant = debug.DiseVariant(c.dise % 3)
	if opts.Variant == debug.VariantMatchAddrValue && slices.ContainsFunc(c.stores, func(s agreeStore) bool { return s.size != 3 }) {
		opts.Variant = debug.VariantEvalExpr
	}
	opts.Multi = debug.MultiStrategy(c.dise / 3 % 3)
	opts.CondSupport = c.dise&16 == 0
	opts.Protect = c.dise&32 != 0
	opts.BreakWithCodewords = c.dise&64 != 0
	return opts
}

// agreeRun is what one back end reported: each watchpoint's values at its
// user transitions, in order, and each breakpoint's hit count.
type agreeRun struct {
	values map[string][]uint64
	hits   map[uint64]int
}

// run installs the case on backend b; ok is false when Install rejects it.
func (c agreeCase) run(t *testing.T, m *machine.Machine, p *asm.Program, b debug.Backend) (agreeRun, bool) {
	m.Reset()
	m.Load(p)
	d := debug.New(m, c.options(b))
	for i, w := range c.watches {
		if err := d.Watch(w.watchpoint(m, i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, br := range c.breaks {
		bp := &debug.Breakpoint{PC: p.TextBase + 4*(uint64(br.pc)%uint64(len(p.Text)))}
		if op, v, ok := agreeCond(br.cond); ok {
			bp.Cond = &debug.BreakCond{Addr: m.Program.MustSymbol("area") + 8*uint64(br.quad), Op: op, Value: v}
		}
		// A second breakpoint at one PC is rejected on every back end.
		_ = d.Break(bp)
	}
	r := agreeRun{values: map[string][]uint64{}, hits: map[uint64]int{}}
	d.OnUser = func(ev debug.UserEvent) {
		switch {
		case ev.Breakpoint != nil:
			r.hits[ev.Breakpoint.PC]++
		case ev.Watchpoint != nil:
			r.values[ev.Watchpoint.Name] = append(r.values[ev.Watchpoint.Name], ev.Value)
		default:
			t.Errorf("%v: user transition at %#x for neither a watchpoint nor a breakpoint", b, ev.PC)
		}
	}
	if d.Install() != nil {
		return r, false
	}
	if _, err := m.Run(20_000); err != nil {
		t.Fatalf("%v: %v", b, err)
	}
	if !m.Core.Halted() {
		t.Fatalf("%v: the loop did not halt", b)
	}
	return r, true
}

// FuzzBackendsAgree tests the paper's semantic claim: the five back ends
// differ in cost, not in what the user sees. Each input is a loop of
// stores with a statement at every instruction, a watchpoint set and up
// to two breakpoints, each optionally conditional; every back end whose
// Install accepts the set-up must report the same values for each
// watchpoint, in the same order, and the same hit count for each
// breakpoint.
func FuzzBackendsAgree(f *testing.F) {
	const (
		scalar0, scalar1, scalar2, rng = 0, 1, 2, 5
		quad                           = 3 // agreeStore size: stq
		eq, ne                         = 1 | 0<<1, 1 | 1<<1
		evalExpr, matchValue           = 1, 2 // agreeCase.dise: the inline variants
	)
	cond := func(op, v uint8) uint8 { return op | v<<3 }
	// Instruction indices: the set-up takes 3+n instructions for n
	// stores, the loop 5n+n+2, then halt.
	for _, c := range []agreeCase{
		// Two conditional breakpoints, on area[1] == 3 (true once) and a
		// never-true area[15] == 7, at the subq and the bne: both once
		// evaluated the last one's operands.
		{iters: 10, stores: []agreeStore{{quad, 8, 0, 127}},
			breaks: []agreeBreak{{pc: 10, cond: cond(eq, 3), quad: 1}, {pc: 11, cond: cond(eq, 7), quad: 15}}},
		// An eval-expr conditional watch and a conditional breakpoint
		// once shared dr14: the watch compared against the breakpoint's
		// condition address and also reported the change to 1.
		{iters: 10, dise: evalExpr, stores: []agreeStore{{quad, 0, 0, 127}},
			watches: []agreeWatch{{slot: scalar0, shape: 3, cond: cond(ne, 1)}},
			breaks:  []agreeBreak{{pc: 0, cond: cond(eq, 31), quad: 15}}},
		// An aligned scalar, then two straddling ones, the last written
		// in its upper quad: the hardware back end gave that scalar's
		// lower quad the last register and dropped its upper one.
		{iters: 4, stores: []agreeStore{{2, 40, 0, 127}},
			watches: []agreeWatch{{slot: scalar0, shape: 3}, {slot: scalar1, shape: 1<<2 | 3}, {slot: scalar2, shape: 1<<2 | 3}}},
		// A 32-byte range whose base quad is tested == 5: the Go-side
		// back ends tested the value 0.
		{iters: 8, stores: []agreeStore{{quad, 80, 0, 127}},
			watches: []agreeWatch{{slot: rng, shape: 3, cond: cond(eq, 5)}}},
		// Two stores to a watched quad, a breakpoint on the second:
		// single-step reported the break and not the first store's value.
		{iters: 3, stores: []agreeStore{{quad, 0, 0, 1}, {quad, 0, 0, 127}},
			watches: []agreeWatch{{slot: scalar0, shape: 3}},
			breaks:  []agreeBreak{{pc: 16}}},
		// Found by this target. A lone scalar straddling two quads,
		// written in the upper one: dise seeded only the lower quad's
		// register and binary rewriting compares only the lower quad.
		{iters: 3, stores: []agreeStore{{2, 40, 0, 127}},
			watches: []agreeWatch{{slot: scalar2, shape: 7<<2 | 3}}},
		// The eval-expr variant with a bitwise Bloom filter: dar held the
		// filter's base, not the watched quad.
		{iters: 10, dise: evalExpr + 3*2, stores: []agreeStore{{quad, 0, 0, 57}},
			watches: []agreeWatch{{slot: scalar0, shape: 0}}},
		// Inline conditional watches whose value alternates 1, 0, 1:
		// dpv kept the last reported 1 through the change to 0 that the
		// predicate rejected, so the change back to 1 went unseen.
		{iters: 10, dise: evalExpr, stores: []agreeStore{{0, 0, 0, 1}},
			watches: []agreeWatch{{slot: scalar0, shape: 1, cond: cond(ne, 0)}}},
		{iters: 10, dise: matchValue, stores: []agreeStore{{quad, 0, 0, 1}},
			watches: []agreeWatch{{slot: scalar0, shape: 3, cond: cond(eq, 1)}}},
		// A 4-byte range, a byte store past its end in its quad, and a
		// silent word store to its base: dise compared whole quads, so
		// the silent store reported the other's byte as a change.
		{iters: 2, stores: []agreeStore{{0, 85, 0, 127}, {1, 80, 0, 0}},
			watches: []agreeWatch{{slot: rng, shape: 3}}},
		// Two 4-byte scalars in one quad, an stl to the upper one, then
		// an stq over both: virtual memory, hardware and dise classified
		// each store by the first watchpoint it matched.
		{iters: 2, stores: []agreeStore{{2, 4, 0, 127}, {quad, 0, 0, 127}},
			watches: []agreeWatch{{slot: scalar0, shape: 2}, {slot: scalar0, shape: 1<<4 | 2}}},
		// Two watchpoints on the same 8 bytes, the first conditional: its
		// failed predicate ended dise's check before the second's block.
		{iters: 3, stores: []agreeStore{{quad, 0, 0, 127}},
			watches: []agreeWatch{{slot: scalar0, shape: 3, cond: cond(eq, 2)}, {slot: scalar0, shape: 3}}},
	} {
		f.Add(c.encode())
	}
	backends := []debug.Backend{debug.BackendSingleStep, debug.BackendVirtualMemory,
		debug.BackendHardwareReg, debug.BackendDise, debug.BackendBinaryRewrite}
	m := machine.NewDefault()
	f.Fuzz(func(t *testing.T, in []byte) {
		c := decodeAgree(in)
		p, err := c.program()
		if err != nil {
			t.Fatal(err)
		}
		var ref agreeRun
		refName := debug.Backend(-1)
		for _, b := range backends {
			r, ok := c.run(t, m, p, b)
			if !ok {
				continue
			}
			if refName < 0 {
				ref, refName = r, b
				continue
			}
			if !maps.EqualFunc(r.values, ref.values, slices.Equal) || !maps.Equal(r.hits, ref.hits) {
				t.Errorf("%+v:\n%v: watch values %v, breakpoint hits %v\n%v: watch values %v, breakpoint hits %v",
					c, refName, ref.values, ref.hits, b, r.values, r.hits)
			}
		}
	})
}

// TestSharedQuadWatchpoints runs two watchpoints in one quad, and two on
// the same bytes, on every back end that takes several scalars. Each must
// report the same values in the same order as single-step, which
// re-evaluates every watchpoint at every statement.
func TestSharedQuadWatchpoints(t *testing.T) {
	type watch struct {
		name      string
		off, size int
		cond      *debug.Condition
	}
	bloom := debug.DefaultOptions(debug.BackendDise)
	bloom.Multi = debug.StrategyBloomByte
	for _, c := range []struct {
		name    string
		stores  []string // one statement each, with r1 = v and r2 = 9<<32 | 7
		watches []watch
		want    []string
	}{
		{"one-quad", []string{"stl r3, 4(r1)", "stq r2, 0(r1)"},
			[]watch{{"v", 0, 4, nil}, {"u", 4, 4, nil}},
			[]string{"u=0x5", "v=0x7", "u=0x9"}},
		{"same-bytes", []string{"stq r3, 0(r1)", "stq r3, 0(r1)", "stq r2, 0(r1)"},
			[]watch{{"a", 0, 8, &debug.Condition{Op: debug.CondGt, Value: 5}}, {"b", 0, 8, nil}},
			[]string{"b=0x5", "a=0x900000007", "b=0x900000007"}},
	} {
		src := ".data\n.align 8\nv: .quad 0\nval: .quad 0x900000007\n.text\nmain:\n.stmt\n    la r1, v\n    la r2, val\n    ldq r2, 0(r2)\n    li r3, 5\n"
		for _, st := range c.stores {
			src += ".stmt\n    " + st + "\n"
		}
		src += ".stmt\n    halt\n"
		for _, opts := range []debug.Options{
			debug.DefaultOptions(debug.BackendSingleStep),
			debug.DefaultOptions(debug.BackendVirtualMemory),
			debug.DefaultOptions(debug.BackendHardwareReg),
			debug.DefaultOptions(debug.BackendDise),
			bloom,
		} {
			m := loadProg(t, src)
			d := debug.New(m, opts)
			for _, w := range c.watches {
				wp := &debug.Watchpoint{Name: w.name, Kind: debug.WatchScalar, Addr: m.Program.MustSymbol("v") + uint64(w.off), Size: w.size, Cond: w.cond}
				if err := d.Watch(wp); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			d.OnUser = func(ev debug.UserEvent) {
				got = append(got, fmt.Sprintf("%s=%#x", ev.Watchpoint.Name, ev.Value))
			}
			if err := d.Install(); err != nil {
				t.Fatalf("%s on %v/%v: %v", c.name, opts.Backend, opts.Multi, err)
			}
			m.MustRun(0)
			if !slices.Equal(got, c.want) {
				t.Errorf("%s on %v/%v: user transitions %v, want %v", c.name, opts.Backend, opts.Multi, got, c.want)
			}
		}
	}
}
