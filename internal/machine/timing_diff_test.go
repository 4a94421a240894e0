package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/dise"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// genTimingProgram emits a pseudo-random program for the event-edge vs
// linear-reference differential: an outer loop over a body of random ALU
// ops, multiplies (single-slot unit, long latency), mixed-size loads and
// stores over a shared array (store-forwarding hits, partial overlaps,
// and drained-store cache probes), and forward conditional branches whose
// direction depends on computed data. Every structural hazard the timing
// core models shows up: ROB/RS/LSQ occupancy wraps, full booking runs,
// port contention, and mispredict redirects.
func genTimingProgram(rng *rand.Rand, bodyInsts, outerIters int) string {
	var b strings.Builder
	b.WriteString(".data\n.align 8\narr: .space 2048\n")
	b.WriteString(".text\n.entry main\nmain:\n")
	b.WriteString("    la  r10, arr\n")
	fmt.Fprintf(&b, "    li  r9, %d\n", outerIters)
	b.WriteString("outer:\n")

	reg := func() int { return 1 + rng.Intn(8) } // r1..r8
	skip := 0                                    // pending forward-branch distance
	for i := 0; i < bodyInsts; i++ {
		fmt.Fprintf(&b, "L%d:\n", i)
		if skip > 0 {
			skip--
		}
		switch k := rng.Intn(100); {
		case k < 30: // ALU, immediate form
			ops := []string{"addq", "subq", "and", "xor", "bis", "sll", "srl"}
			op := ops[rng.Intn(len(ops))]
			imm := rng.Intn(16)
			if op == "sll" || op == "srl" {
				imm = rng.Intn(8)
			}
			fmt.Fprintf(&b, "    %s r%d, #%d, r%d\n", op, reg(), imm, reg())
		case k < 45: // ALU, register form
			ops := []string{"addq", "subq", "xor", "cmplt"}
			fmt.Fprintf(&b, "    %s r%d, r%d, r%d\n", ops[rng.Intn(len(ops))], reg(), reg(), reg())
		case k < 52: // multiply: the limit-1 booking with long latency
			fmt.Fprintf(&b, "    mulq r%d, r%d, r%d\n", reg(), reg(), reg())
		case k < 70: // load, mixed sizes
			ops := []string{"ldq", "ldl", "ldw", "ldbu"}
			op := ops[rng.Intn(len(ops))]
			fmt.Fprintf(&b, "    %s r%d, %d(r10)\n", op, reg(), rng.Intn(256)*8)
		case k < 88: // store, mixed sizes: partial overlaps against loads
			ops := []string{"stq", "stl", "stw", "stb"}
			op := ops[rng.Intn(len(ops))]
			fmt.Fprintf(&b, "    %s r%d, %d(r10)\n", op, reg(), rng.Intn(256)*8)
		case k < 96 && skip == 0 && i+5 < bodyInsts: // forward branch
			ops := []string{"bne", "beq", "blt", "bge"}
			skip = 1 + rng.Intn(4)
			fmt.Fprintf(&b, "    %s r%d, L%d\n", ops[rng.Intn(len(ops))], reg(), i+skip)
		default:
			fmt.Fprintf(&b, "    addq r%d, #1, r%d\n", reg(), reg())
		}
	}
	fmt.Fprintf(&b, "L%d:\n", bodyInsts)
	b.WriteString("    subq r9, #1, r9\n")
	b.WriteString("    bne r9, outer\n")
	b.WriteString("    halt\n")
	return b.String()
}

// timingSurface is everything the differential compares: the full pipeline
// statistics (cycle count included), the memory-system statistics (a
// store-queue divergence would change D-cache probe counts), predictor
// state, and the architectural stopping point.
type timingSurface struct {
	Pipe pipeline.Stats
	Mem  MemStats
	PC   uint64
	Regs [32]uint64
}

func surfaceOf(m *Machine) timingSurface {
	var s timingSurface
	s.Pipe = m.Core.Stats()
	s.Mem = m.MemStats()
	s.PC = m.Core.PC()
	copy(s.Regs[:], m.Core.Regs[:])
	return s
}

// runTimingPair loads the same program into an event-edge machine and a
// LinearTiming reference machine, applies identical hooks, runs both to
// completion, and returns the two surfaces.
func runTimingPair(t *testing.T, cfg Config, src string, hooks func(*Machine)) (ev, lin timingSurface) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	run := func(linear bool) timingSurface {
		c := cfg
		c.Core.LinearTiming = linear
		m := New(c)
		m.Load(p)
		if hooks != nil {
			hooks(m)
		}
		if _, err := m.Run(0); err != nil {
			t.Fatalf("run (linear=%v): %v", linear, err)
		}
		return surfaceOf(m)
	}
	return run(false), run(true)
}

// TestTimingEventEdgeMatchesLinearReference is the tentpole's differential
// property test: ≥4000-op random uop streams must produce bit-identical
// cycle counts, statistics, memory-system behavior, and architectural
// state through the event-edge timing path and the retained linear
// reference, across every machine preset.
func TestTimingEventEdgeMatchesLinearReference(t *testing.T) {
	for _, preset := range Presets() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", preset, seed), func(t *testing.T) {
				cfg, ok := PresetConfig(preset)
				if !ok {
					t.Fatalf("no preset %q", preset)
				}
				rng := rand.New(rand.NewSource(0x71e<<8 + seed))
				src := genTimingProgram(rng, 1600, 3)
				ev, lin := runTimingPair(t, cfg, src, nil)
				if ev != lin {
					t.Fatalf("event-edge and linear timing diverged:\n event %+v\nlinear %+v", ev, lin)
				}
				if ev.Pipe.AppInsts < 4000 {
					t.Fatalf("stream too short: %d committed app instructions, want >= 4000", ev.Pipe.AppInsts)
				}
				if !ev.Pipe.Halted {
					t.Fatal("program did not halt")
				}
			})
		}
	}
}

// TestTimingDifferentialUnderTrapStalls adds the debugger's signature
// perturbation: periodic long store stalls (the §5 debugger-transition
// cost) that fully book thousands of commit cycles and push the booking
// edges far ahead of the dispatch stream. The event-edge path must keep
// matching the linear reference through the stall vaults — this is the
// regime the known-full interval and maxBooked were built for.
func TestTimingDifferentialUnderTrapStalls(t *testing.T) {
	rng := rand.New(rand.NewSource(0xed9e))
	src := genTimingProgram(rng, 1600, 3)
	cfg := DefaultConfig()
	stallHooks := func(m *Machine) {
		var stores uint64
		m.Core.Hooks.OnStore = func(pipeline.StoreEvent) uint64 {
			if stores++; stores%64 == 0 {
				return 5000 // long debugger-transition stall
			}
			return 0
		}
	}
	ev, lin := runTimingPair(t, cfg, src, stallHooks)
	if ev != lin {
		t.Fatalf("event-edge and linear timing diverged under trap stalls:\n event %+v\nlinear %+v", ev, lin)
	}
	if ev.Pipe.TrapStallCycles == 0 {
		t.Fatal("no trap stalls charged — the perturbation never fired")
	}
	if ev.Pipe.AppInsts < 4000 {
		t.Fatalf("stream too short: %d committed app instructions, want >= 4000", ev.Pipe.AppInsts)
	}
}

// TestTimingDifferentialWithDise runs the random-stream differential with
// the DISE expansion path live: a store-class watchpoint production (the
// §3 address-watchpoint check sequence) expands every store into a
// replacement sequence whose uops are pre-resolved at Install time, plus a
// trigger-parameterized production that re-resolves one slot per
// expansion. Both uop-resolution sites must leave the event-edge and
// linear-reference surfaces bit-identical.
func TestTimingDifferentialWithDise(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd15e))
	src := genTimingProgram(rng, 1600, 4)
	cfg := DefaultConfig()
	diseHooks := func(m *Machine) {
		prods := []*dise.Production{
			{
				Name:    "watch-stores",
				Pattern: dise.MatchClass(isa.ClassStore),
				Replacement: []dise.TemplateInst{
					dise.TInst(),
					dise.OpIT(isa.OpAddq, dise.DReg(isa.DR0), 1, dise.DReg(isa.DR0)),
				},
			},
			{
				// Trigger-parameterized slot: copies the trigger's RA into
				// a DISE register, so instantiation resolves a fresh uop
				// per expansion rather than reusing an install-time one.
				Name:    "spill-mul",
				Pattern: dise.MatchClass(isa.ClassIntMul),
				Replacement: []dise.TemplateInst{
					dise.TInst(),
					{Inst: isa.Inst{Op: isa.OpAddq, RB: isa.Zero, RC: isa.DR1, RCSp: isa.DiseSpace}, RAFrom: dise.FromRA},
				},
			},
		}
		for _, p := range prods {
			if err := m.Engine.Install(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	ev, lin := runTimingPair(t, cfg, src, diseHooks)
	if ev != lin {
		t.Fatalf("event-edge and linear timing diverged under DISE expansion:\n event %+v\nlinear %+v", ev, lin)
	}
	if ev.Pipe.Expansions == 0 {
		t.Fatal("productions never expanded — the DISE path never ran")
	}
	if ev.Pipe.AppInsts < 4000 {
		t.Fatalf("stream too short: %d committed app instructions, want >= 4000", ev.Pipe.AppInsts)
	}
	if ev.Pipe.UopHits == 0 || ev.Pipe.UopResolves == 0 {
		t.Fatalf("uop counters dead: hits=%d resolves=%d", ev.Pipe.UopHits, ev.Pipe.UopResolves)
	}
}

// genCommitSatProgram emits long runs of independent 1-cycle ALU ops —
// eight interleaved self-increment chains give the width-4 core more ILP
// than commit bandwidth — so the commit table fills every cycle to its
// limit and the monotone cursor spends its life on the full-cycle spill
// path rather than the fill path.
func genCommitSatProgram(iters int) string {
	var b strings.Builder
	b.WriteString(".text\n.entry main\nmain:\n")
	fmt.Fprintf(&b, "    li  r9, %d\n", iters)
	b.WriteString("outer:\n")
	for i := 0; i < 400; i++ {
		r := 1 + i%8
		fmt.Fprintf(&b, "    addq r%d, #1, r%d\n", r, r)
	}
	b.WriteString("    subq r9, #1, r9\n")
	b.WriteString("    bne r9, outer\n")
	b.WriteString("    halt\n")
	return b.String()
}

// genLSQFullProgram emits dense back-to-back memory traffic: every
// instruction is a load or store, so in-flight memory ops pin the LSQ
// ring at capacity and the LSQ occupancy edge — not arrival — decides
// most dispatch cycles. Mixed sizes and a deterministic stride pattern
// keep store-forwarding hits, partial overlaps, and drained-store cache
// probes all in play while the ring wraps.
func genLSQFullProgram(iters int) string {
	var b strings.Builder
	b.WriteString(".data\n.align 8\narr: .space 2048\n")
	b.WriteString(".text\n.entry main\nmain:\n")
	b.WriteString("    la  r10, arr\n")
	fmt.Fprintf(&b, "    li  r9, %d\n", iters)
	b.WriteString("outer:\n")
	for i := 0; i < 300; i++ {
		off := (i * 56) % 2040
		r := 1 + i%8
		switch i % 4 {
		case 0:
			fmt.Fprintf(&b, "    stq r%d, %d(r10)\n", r, off&^7)
		case 1:
			fmt.Fprintf(&b, "    ldq r%d, %d(r10)\n", r, off&^7)
		case 2:
			fmt.Fprintf(&b, "    stb r%d, %d(r10)\n", r, off)
		default:
			fmt.Fprintf(&b, "    ldw r%d, %d(r10)\n", r, off&^1)
		}
	}
	b.WriteString("    subq r9, #1, r9\n")
	b.WriteString("    bne r9, outer\n")
	b.WriteString("    halt\n")
	return b.String()
}

// watchAllHooks installs a production over the given class so the stream
// under test runs with expansion bursts live — the fetch/dispatch/commit
// cursors must stay bit-identical to the linear reference's rings even
// when the saturated table keeps spilling.
func watchAllHooks(t *testing.T, class isa.Class) func(*Machine) {
	return func(m *Machine) {
		p := &dise.Production{
			Name:    "watch-all",
			Pattern: dise.MatchClass(class),
			Replacement: []dise.TemplateInst{
				dise.TInst(),
				dise.OpIT(isa.OpAddq, dise.DReg(isa.DR0), 1, dise.DReg(isa.DR0)),
				dise.OpIT(isa.OpAddq, dise.DReg(isa.DR1), 1, dise.DReg(isa.DR1)),
			},
		}
		if err := m.Engine.Install(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTimingDifferentialCommitSaturation pins the monotone commit/dispatch
// cursors at their saturated edge: long runs of 1-cycle ALU ops commit at
// full width every cycle, with and without DISE expansion bursts layered
// on top.
func TestTimingDifferentialCommitSaturation(t *testing.T) {
	cfg := DefaultConfig()
	t.Run("plain", func(t *testing.T) {
		ev, lin := runTimingPair(t, cfg, genCommitSatProgram(12), nil)
		if ev != lin {
			t.Fatalf("event-edge and linear timing diverged under commit saturation:\n event %+v\nlinear %+v", ev, lin)
		}
		if ev.Pipe.AppInsts < 4000 {
			t.Fatalf("stream too short: %d committed app instructions, want >= 4000", ev.Pipe.AppInsts)
		}
		if ev.Pipe.Cycles >= ev.Pipe.AppInsts {
			t.Fatalf("IPC below 1 (%d insts in %d cycles): commit bandwidth never saturated",
				ev.Pipe.AppInsts, ev.Pipe.Cycles)
		}
	})
	t.Run("dise", func(t *testing.T) {
		ev, lin := runTimingPair(t, cfg, genCommitSatProgram(12), watchAllHooks(t, isa.ClassIntALU))
		if ev != lin {
			t.Fatalf("event-edge and linear timing diverged under commit saturation with DISE:\n event %+v\nlinear %+v", ev, lin)
		}
		if ev.Pipe.Expansions == 0 {
			t.Fatal("productions never expanded — the burst path never ran")
		}
	})
}

// TestTimingDifferentialLSQFull pins the LSQ-occupancy edge: every
// instruction is a memory op, so the LSQ ring stays full and its edge
// gates dispatch, with and without store-burst expansions on top.
func TestTimingDifferentialLSQFull(t *testing.T) {
	cfg := DefaultConfig()
	t.Run("plain", func(t *testing.T) {
		ev, lin := runTimingPair(t, cfg, genLSQFullProgram(16), nil)
		if ev != lin {
			t.Fatalf("event-edge and linear timing diverged with the LSQ full:\n event %+v\nlinear %+v", ev, lin)
		}
		if ev.Pipe.AppInsts < 4000 {
			t.Fatalf("stream too short: %d committed app instructions, want >= 4000", ev.Pipe.AppInsts)
		}
		if ev.Pipe.Loads == 0 || ev.Pipe.Stores == 0 {
			t.Fatalf("memory traffic dead: loads=%d stores=%d", ev.Pipe.Loads, ev.Pipe.Stores)
		}
	})
	t.Run("dise", func(t *testing.T) {
		ev, lin := runTimingPair(t, cfg, genLSQFullProgram(16), watchAllHooks(t, isa.ClassStore))
		if ev != lin {
			t.Fatalf("event-edge and linear timing diverged with the LSQ full under DISE:\n event %+v\nlinear %+v", ev, lin)
		}
		if ev.Pipe.Expansions == 0 {
			t.Fatal("productions never expanded — the burst path never ran")
		}
	})
}

// genPointerChaseProgram emits a chain of n quadword pointers and a loop
// that chases it with n dependent loads. Most links step 256 KiB — the
// same set of every cache level and TLB, so the hop misses to memory —
// and about one in three steps 8 bytes, a hit in the line just fetched.
// Each load issues only once its predecessor's data returns, while the
// loop's dispatch runs dozens of hops ahead of it, so the load port's
// live window (its booked cycles at or above the dispatch floor) spans
// thousands of cycles; the irregular hop latencies scatter those cycles
// across the residues of the port ring, which must grow rather than
// alias.
func genPointerChaseProgram(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString(".data\n.align 8\nchain: .quad 0\n")
	b.WriteString(".text\n.entry main\nmain:\n")
	b.WriteString("    la   r1, chain\n")
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			b.WriteString("    lda  r3, 8(r1)\n")
		} else {
			b.WriteString("    ldah r3, 4(r1)\n") // 4 << 16: 256 KiB on
		}
		b.WriteString("    stq  r3, 0(r1)\n")
		b.WriteString("    bis  r3, r3, r1\n")
	}
	b.WriteString("    la   r1, chain\n")
	fmt.Fprintf(&b, "    li   r2, %d\n", n)
	b.WriteString("chase:\n")
	b.WriteString("    ldq  r1, 0(r1)\n")
	b.WriteString("    subq r2, #1, r2\n")
	b.WriteString("    bne  r2, chase\n")
	b.WriteString("    halt\n")
	return b.String()
}

// TestTimingDifferentialPointerChase runs the set-conflicting pointer
// chase, whose live load window outgrows the port ring's starting size,
// through the event-edge and linear timing paths on every preset: the
// rings grow in lockstep and the results stay bit-identical.
func TestTimingDifferentialPointerChase(t *testing.T) {
	src := genPointerChaseProgram(rand.New(rand.NewSource(0xc4a5e)), 400)
	for _, preset := range Presets() {
		t.Run(preset, func(t *testing.T) {
			cfg, ok := PresetConfig(preset)
			if !ok {
				t.Fatalf("no preset %q", preset)
			}
			ev, lin := runTimingPair(t, cfg, src, nil)
			if ev != lin {
				t.Fatalf("event-edge and linear timing diverged on the pointer chase:\n event %+v\nlinear %+v", ev, lin)
			}
			if ev.Pipe.Loads != 400 || !ev.Pipe.Halted {
				t.Fatalf("chase did not run: %+v", ev.Pipe)
			}
		})
	}
}

// TestSnapshotAfterPortRingGrowth snapshots the pointer chase midway,
// once the load port's ring has grown, in both timing modes: the donor's
// continued run, the restored machine's re-encoding, and the restored
// machine's run must all match an uninterrupted run. A machine whose
// rings have grown must also replay a snapshot taken before they did.
func TestSnapshotAfterPortRingGrowth(t *testing.T) {
	prog, err := asm.Assemble(genPointerChaseProgram(rand.New(rand.NewSource(0xc4a5e)), 400))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for _, linear := range []bool{false, true} {
		t.Run(fmt.Sprintf("linear=%v", linear), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Core.LinearTiming = linear
			load := func() *Machine {
				m := New(cfg)
				m.Load(prog)
				return m
			}
			ref := load()
			ref.MustRun(0)
			refSurf := surfaceOf(ref)

			donor := load()
			early := donor.Snapshot()
			coreBytes := func(st *State) int { return len(st.Core.AppendBinary(nil, -1)) }
			// The chain build plus 300 of the 400 hops: well into the chase.
			donor.MustRun(2 + 3*400 + 3 + 3*300)
			snap := donor.Snapshot()
			// A port ring at its starting 1,024 slots encodes in 10 KiB;
			// nothing else in the core's encoding grows by that much.
			if grew := coreBytes(snap) - coreBytes(early); grew < 10<<10 {
				t.Fatalf("core encoding grew by %d bytes: no port ring has grown by the snapshot", grew)
			}
			enc := snap.Encode()
			donor.MustRun(0)
			if s := surfaceOf(donor); s != refSurf {
				t.Fatalf("donor diverged after the snapshot:\n donor %+v\n   ref %+v", s, refSurf)
			}

			fresh := New(cfg)
			fresh.Restore(snap)
			if !bytes.Equal(enc, fresh.Snapshot().Encode()) {
				t.Fatal("restored machine re-encodes to different bytes")
			}
			fresh.MustRun(0)
			if s := surfaceOf(fresh); s != refSurf {
				t.Fatalf("restored machine diverged:\n fresh %+v\n   ref %+v", s, refSurf)
			}

			// The donor's rings are grown now; restoring the pre-chase
			// snapshot shrinks them back and replays the whole run.
			donor.Restore(early)
			donor.MustRun(0)
			if s := surfaceOf(donor); s != refSurf {
				t.Fatalf("grown machine diverged replaying an early snapshot:\n donor %+v\n   ref %+v", s, refSurf)
			}
		})
	}
}
