package machine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workload"
)

func TestLoadAndRun(t *testing.T) {
	p, err := asm.Assemble(`
.data
x: .quad 41
.text
main:
    la  r1, x
    ldq r2, 0(r1)
    addq r2, #1, r2
    stq r2, 0(r1)
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewDefault()
	m.Load(p)
	st := m.MustRun(0)
	if !st.Halted {
		t.Fatal("did not halt")
	}
	if got := m.ReadQuad(p.MustSymbol("x")); got != 42 {
		t.Errorf("x = %d", got)
	}
	if m.Core.Regs[30] != asm.DefaultStackTop {
		t.Errorf("sp = %#x", m.Core.Regs[30])
	}
}

// TestRunTextAtHighHalf: a program whose text starts at 1<<63 runs to
// halt on a fresh machine; its first fetch happens while the predecoder
// has no window.
func TestRunTextAtHighHalf(t *testing.T) {
	b := asm.NewAt(1<<63, asm.DefaultDataBase)
	b.Halt()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := NewDefault()
	m.Load(p)
	if st := m.MustRun(0); !st.Halted {
		t.Fatal("did not halt")
	}
}

// TestWrappingStorePatchesText: a program at text base 0 patches its own
// first instruction with an 8-byte store at 2^64-4, whose last four bytes
// wrap around to address 0, and branches back. The predecoded copy of
// page 0 must be dropped, so the second pass runs the patched "addq r1,
// #100, r1".
func TestWrappingStorePatchesText(t *testing.T) {
	patched, err := isa.Encode(isa.Inst{Op: isa.OpAddq, RA: isa.R1, Imm: 100, UseImm: true, RC: isa.R1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.AssembleAt(fmt.Sprintf(`
main:
    addq r1, #1, r1
    bne r4, done
    li  r4, 1
    li  r2, %d
    sll r2, #32, r2
    stq r2, -4(zero)
    br  main
done:
    halt
`, int32(patched)), 0, asm.DefaultDataBase)
	if err != nil {
		t.Fatal(err)
	}
	m := NewDefault()
	m.Load(p)
	if st := m.MustRun(0); !st.Halted {
		t.Fatal("did not halt")
	}
	if got := m.Core.Regs[1]; got != 101 {
		t.Errorf("r1 = %d, want 101 (the stale first instruction ran again)", got)
	}
}

func TestRunWithoutProgram(t *testing.T) {
	m := NewDefault()
	if _, err := m.Run(0); err == nil {
		t.Error("want error without a program")
	}
}

func TestAppendTextAndData(t *testing.T) {
	p, err := asm.Assemble("main: halt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewDefault()
	m.Load(p)

	next := m.NextTextAppend()
	base1 := m.AppendText([]uint32{1, 2, 3})
	if base1 != next {
		t.Errorf("AppendText at %#x, NextTextAppend said %#x", base1, next)
	}
	base2 := m.AppendText([]uint32{4})
	if base2 <= base1+8 {
		t.Errorf("second append overlaps: %#x vs %#x", base2, base1)
	}
	if got := m.Mem.Read(base1+8, 4); got != 3 {
		t.Errorf("text word = %d", got)
	}

	d1 := m.AppendData([]byte{0xAA})
	d2 := m.AppendData([]byte{0xBB})
	if d1%4096 != 0 || d2%4096 != 0 || d1 == d2 {
		t.Errorf("data appends: %#x, %#x", d1, d2)
	}
	if m.Mem.Read(d1, 1) != 0xAA || m.Mem.Read(d2, 1) != 0xBB {
		t.Error("data contents wrong")
	}
	// Appended data must be clear of the program's own pages.
	if d1 < p.DataEnd() {
		t.Errorf("append overlaps program data: %#x < %#x", d1, p.DataEnd())
	}
}

// TestAppendTextWritesOnce: AppendText stores its words the way Load
// stores the text, in one write, so the write hooks (the predecoder's
// invalidation among them) run once per call, not once per word.
func TestAppendTextWritesOnce(t *testing.T) {
	p, err := asm.Assemble("main: halt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewDefault()
	m.Load(p)
	calls := 0
	m.Mem.AddWriteHook(func(lo, hi uint64) { calls++ })
	words := []uint32{0x11111111, 0x22222222, 0x33333333, 0x44444444}
	base := m.AppendText(words)
	if calls != 1 {
		t.Errorf("AppendText of %d words ran the write hooks %d times, want 1", len(words), calls)
	}
	for i, w := range words {
		if got := m.Mem.Read(base+4*uint64(i), 4); got != uint64(w) {
			t.Errorf("word %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestPresets: every preset must resolve, build a working machine, and
// run a real program to completion; distinct presets must produce
// distinct configurations (so the serve layer's config-keyed pools do not
// silently collapse).
func TestPresets(t *testing.T) {
	src := `
.data
x: .quad 0
.text
main:
    la  r1, x
    li  r2, 50
loop:
    stq r2, 0(r1)
    subq r2, #1, r2
    bne r2, loop
    halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Config]string{}
	for _, name := range Presets() {
		cfg, ok := PresetConfig(name)
		if !ok {
			t.Fatalf("preset %q did not resolve", name)
		}
		if prev, dup := seen[cfg]; dup {
			t.Errorf("presets %q and %q share a configuration", prev, name)
		}
		seen[cfg] = name
		m := New(cfg)
		m.Load(p)
		st := m.MustRun(0)
		if !st.Halted || st.AppInsts == 0 {
			t.Errorf("preset %q: stats %+v", name, st)
		}
		if got := m.ReadQuad(p.MustSymbol("x")); got != 1 {
			t.Errorf("preset %q: x = %d, want 1", name, got)
		}
	}
	if def, _ := PresetConfig("default"); def != DefaultConfig() {
		t.Error(`preset "default" diverges from DefaultConfig`)
	}
	if _, ok := PresetConfig("nope"); ok {
		t.Error("unknown preset resolved")
	}
}

func TestWriteQuad(t *testing.T) {
	m := NewDefault()
	m.WriteQuad(0x5000, 0x1234)
	if m.ReadQuad(0x5000) != 0x1234 {
		t.Error("round trip failed")
	}
}

// TestResetRestoresColdHierarchy pins machine.Reset over the cache
// hierarchy's flattened way layout: after a warm run, Reset must leave
// no resident lines, zeroed memory-system statistics, and timing that
// replays a fresh machine's exactly (same cold latency for the same
// first access — a surviving line would diverge).
func TestResetRestoresColdHierarchy(t *testing.T) {
	p, err := asm.Assemble(`
.data
x: .quad 7
.text
main:
    la  r1, x
    li  r2, 200
loop:
    ldq r3, 0(r1)
    stq r3, 0(r1)
    subq r2, #1, r2
    bne r2, loop
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewDefault()
	m.Load(p)
	m.MustRun(0)
	addr := p.MustSymbol("x")
	if !m.Hier.L1D.Probe(addr) {
		t.Fatal("warm run left x uncached — test lost its teeth")
	}
	if ms := m.MemStats(); ms.L1D.Accesses == 0 || ms.L1I.Accesses == 0 {
		t.Fatalf("no cache traffic recorded: %+v", ms)
	}

	m.Reset()
	if m.Hier.L1D.Probe(addr) {
		t.Error("Reset kept L1D lines")
	}
	if ms := m.MemStats(); ms != (MemStats{}) {
		t.Errorf("Reset kept memory-system stats: %+v", ms)
	}
	fresh := NewDefault()
	if got, want := m.Hier.DataLatency(addr, false, 0), fresh.Hier.DataLatency(addr, false, 0); got != want {
		t.Errorf("recycled cold latency = %d, fresh = %d", got, want)
	}
	if got, want := m.Hier.FetchLatency(addr+64, 100), fresh.Hier.FetchLatency(addr+64, 100); got != want {
		t.Errorf("recycled cold fetch latency = %d, fresh = %d", got, want)
	}
}

// footprintSink keeps TestMachineFootprint's machines on the heap.
var footprintSink *Machine

// TestMachineFootprint bounds the bytes one New allocates on each preset,
// as the TotalAlloc delta over ten calls: a debug service holds a whole
// machine per session. Each cache, TLB and BTB way is one word (a BTB way
// two), so the default machine stays under 256 KiB; with a 24-byte
// stamped cache line and a 32-byte BTB entry it took 552 KiB.
func TestMachineFootprint(t *testing.T) {
	bounds := map[string]uint64{
		"default":     256 << 10,
		"small-cache": 144 << 10,
		"big-l2":      640 << 10,
		"no-bpred":    192 << 10,
		"narrow-core": 256 << 10,
	}
	for _, preset := range Presets() {
		cfg, _ := PresetConfig(preset)
		bound, ok := bounds[preset]
		if !ok {
			t.Errorf("%s: no footprint bound", preset)
			continue
		}
		const n = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			footprintSink = New(cfg)
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / n
		if got > bound {
			t.Errorf("%s: New allocates %d bytes per machine, want at most %d", preset, got, bound)
			continue
		}
		t.Logf("%s: New allocates %d bytes per machine", preset, got)
	}
	footprintSink = nil
}

// BenchmarkMachineNew builds one machine per preset: what a debug service
// pays for a session its pool cannot serve (informational in
// scripts/bench_smoke.sh, with -benchmem).
func BenchmarkMachineNew(b *testing.B) {
	for _, preset := range Presets() {
		cfg, _ := PresetConfig(preset)
		b.Run(preset, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(cfg)
			}
		})
	}
}

// BenchmarkMachineLoad loads mcf, whose 4 MiB pointer ring dominates its
// image, into a recycled machine: what every harness job and pooled
// session pays before its first instruction (informational in
// scripts/bench_smoke.sh, with -benchmem).
func BenchmarkMachineLoad(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	p := workload.MustBuild(spec, kernelIterations(spec, 300_000)).Program
	m := NewDefault()
	b.ReportAllocs()
	for b.Loop() {
		m.Reset()
		m.Load(p)
	}
}
