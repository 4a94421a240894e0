package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/debug"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// debugWorkload is the split form of runDebugWorkload: setup attaches the
// debugger and fingerprint runs to an absolute instruction budget, so a
// test can snapshot/restore between the two. The surface compared is
// identical to the pool-recycle contract's.
type debugWorkload struct {
	m *machine.Machine
	d *debug.Debugger
	w *workload.Workload
}

func setupDebugWorkload(t *testing.T, m *machine.Machine) *debugWorkload {
	return setupDebugWorkloadBackend(t, m, debug.BackendDise)
}

// setupDebugWorkloadBackend is setupDebugWorkload with a chosen debugger
// backend: the mid-skip snapshot tests use the virtual-memory backend
// because its spurious transitions charge real stalls (DISE filters them
// — the paper's point — which leaves nothing to skip over).
func setupDebugWorkloadBackend(t *testing.T, m *machine.Machine, backend debug.Backend) *debugWorkload {
	t.Helper()
	spec, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("no gcc workload")
	}
	w := workload.MustBuild(spec, 1<<20)
	m.Load(w.Program)
	d := debug.New(m, debug.DefaultOptions(backend))
	if err := d.Watch(&debug.Watchpoint{Name: "hot", Kind: debug.WatchScalar, Addr: w.WP.Hot, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Watch(&debug.Watchpoint{Name: "warm", Kind: debug.WatchScalar, Addr: w.WP.Warm1, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	return &debugWorkload{m: m, d: d, w: w}
}

// runTo advances the workload to the absolute AppInsts budget.
func (dw *debugWorkload) runTo(t *testing.T, target uint64) {
	t.Helper()
	if _, err := dw.m.Run(target); err != nil {
		t.Fatal(err)
	}
}

// fingerprint captures the full observable surface (same fields as
// runDebugWorkload's return).
func (dw *debugWorkload) fingerprint() machineFingerprint {
	m := dw.m
	var regs [32]uint64
	copy(regs[:], m.Core.Regs[:])
	mem := m.MemStats()
	return machineFingerprint{
		Pipe:    m.Core.Stats(),
		Trans:   dw.d.Stats(),
		Mem:     mem,
		BP:      m.Core.BP.Stats(),
		Dise:    m.Engine.Stats(),
		PC:      m.Core.PC(),
		Regs:    regs,
		Hot:     m.ReadQuad(dw.w.WP.Hot),
		HotLine: m.Hier.L1D.Probe(dw.w.WP.Hot),
		ColdLat: m.Hier.DataLatency(0x7F00_0000, false, 1<<40),
	}
}

// TestSnapshotRoundTripDeterminism is the snapshot contract, the
// round-trip extension of the pool-recycle fingerprint test: run N insts,
// Snapshot, run M more (diverging the live machine from the snapshot),
// then Restore onto a *fresh* machine — carrying the debugger across via
// Checkpoint/Rebind, exactly the crash-recovery path — and re-run the M.
// The replayed machine must be bit-identical to an uninterrupted run on
// every observable surface, and the snapshot encoding must be
// deterministic, across all five machine presets.
//
// Each preset is exercised at two snapshot points: a fixed mid-run
// instruction count, and a "mid-skip" point — the first instruction
// boundary after a charged debugger-transition stall, where the timing
// core's fetch cursor sits thousands of cycles past the dispatch stream.
// A restored machine must resume skipping exactly like the donor, which
// is the cursor-serialization half of the snapshot contract.
func TestSnapshotRoundTripDeterminism(t *testing.T) {
	const mid, end = 15_000, 40_000
	for _, preset := range machine.Presets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			cfg, ok := machine.PresetConfig(preset)
			if !ok {
				t.Fatalf("no preset %q", preset)
			}
			t.Run("mid", func(t *testing.T) { roundTripAt(t, cfg, debug.BackendDise, mid, end) })
			t.Run("mid-skip", func(t *testing.T) {
				// The virtual-memory backend charges the §2 spurious
				// transitions as real stalls, so there is a skip to land in.
				const b = debug.BackendVirtualMemory
				roundTripAt(t, cfg, b, findMidSkip(t, cfg, b), end)
			})
		})
	}
}

// findMidSkip locates the first instruction boundary at which the
// workload has charged a debugger-transition stall: a snapshot taken
// there lands while the fetch cursor is still far ahead of the dispatch
// stream.
func findMidSkip(t *testing.T, cfg machine.Config, backend debug.Backend) uint64 {
	t.Helper()
	const limit = 30_000
	probe := setupDebugWorkloadBackend(t, machine.New(cfg), backend)
	coarse := uint64(0)
	for n := uint64(250); n <= limit; n += 250 {
		probe.runTo(t, n)
		if probe.m.Core.Stats().TrapStallCycles > 0 {
			coarse = n
			break
		}
	}
	if coarse == 0 {
		t.Fatalf("no debugger-transition stall charged in the first %d insts", limit)
	}
	fine := setupDebugWorkloadBackend(t, machine.New(cfg), backend)
	if coarse > 250 {
		fine.runTo(t, coarse-250)
	}
	for n := coarse - 250 + 1; ; n++ {
		fine.runTo(t, n)
		if fine.m.Core.Stats().TrapStallCycles > 0 {
			return n
		}
	}
}

// roundTripAt runs the snapshot round-trip contract with the snapshot
// taken at instruction boundary mid, under the given debugger backend.
func roundTripAt(t *testing.T, cfg machine.Config, backend debug.Backend, mid, end uint64) {
	t.Helper()

	// Uninterrupted reference run.
	ref := setupDebugWorkloadBackend(t, machine.New(cfg), backend)
	ref.runTo(t, end)
	want := ref.fingerprint()

	// Snapshot at mid, then let the donor run on so a shared page
	// or aliased structure would visibly corrupt the snapshot.
	donor := setupDebugWorkloadBackend(t, machine.New(cfg), backend)
	donor.runTo(t, mid)
	snap := donor.m.Snapshot()
	chk := donor.d.Checkpoint()
	enc := snap.Encode()
	if len(enc) == 0 {
		t.Fatal("empty snapshot encoding")
	}
	if !bytes.Equal(enc, snap.Encode()) {
		t.Fatal("snapshot encoding is not deterministic")
	}
	donor.runTo(t, end)
	if got := donor.fingerprint(); got != want {
		t.Fatalf("donor's own run diverged from reference (snapshot overhead is not transparent):\n got %+v\nwant %+v", got, want)
	}

	// Restore onto a fresh machine and replay.
	fresh := machine.New(cfg)
	fresh.Restore(snap)
	donor.d.RestoreCheckpoint(chk)
	donor.d.Rebind(fresh)
	if enc2 := fresh.Snapshot().Encode(); !bytes.Equal(enc, enc2) {
		t.Fatal("re-snapshot of restored machine encodes differently")
	}
	replay := &debugWorkload{m: fresh, d: donor.d, w: donor.w}
	replay.runTo(t, end)
	if got := replay.fingerprint(); got != want {
		t.Fatalf("restored run diverged from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}

	// Full-memory comparison, beyond the fingerprinted values.
	wantPages := ref.m.Mem.MappedPages()
	gotPages := fresh.Mem.MappedPages()
	if len(wantPages) != len(gotPages) {
		t.Fatalf("mapped pages differ: got %d want %d", len(gotPages), len(wantPages))
	}
	for i, pn := range wantPages {
		if gotPages[i] != pn {
			t.Fatalf("page set differs at %d: got %#x want %#x", i, gotPages[i], pn)
		}
		wb := ref.m.Mem.ReadBytes(pn*4096, 4096)
		gb := fresh.Mem.ReadBytes(pn*4096, 4096)
		if !bytes.Equal(wb, gb) {
			t.Fatalf("memory page %#x differs after restore+replay", pn)
		}
	}
}

// TestServeFaultRecovery injects one worker panic mid-run and asserts the
// session recovers from its last checkpoint without process death: the
// run completes with the correct final state, Faults/Recoveries surface
// in server stats, and subscribers get an EventFault carrying the
// recovery generation.
func TestServeFaultRecovery(t *testing.T) {
	srv := New(Config{
		Quantum:         10, // many quanta across the countdown
		CheckpointEvery: 1,
		FaultInject: func(id, nq uint64, m *machine.Machine) error {
			if nq == 3 {
				// Corrupt the machine before faulting: recovery must
				// discard it, not pool it.
				m.Core.Regs[2] = 0xdead
				return fmt.Errorf("injected fault at quantum %d", nq)
			}
			return nil
		},
	})
	defer srv.Close()

	s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(SubscribeOptions{Depth: 64})
	if err := s.Continue(0); err != nil {
		t.Fatal(err)
	}
	if st := s.Wait(); st != StateHalted {
		t.Fatalf("state = %v, want halted (err: %v)", st, s.Err())
	}
	v, err := s.ReadQuad(mustSym(t, s, "v"))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("v = %d after recovery, want 1", v)
	}
	st := srv.Stats()
	if st.Faults != 1 || st.Recoveries != 1 {
		t.Errorf("stats faults/recoveries = %d/%d, want 1/1", st.Faults, st.Recoveries)
	}
	var fault, halt bool
	for ev := range sub.Events() {
		if ev.Kind == EventFault {
			fault = true
			if ev.Gen != 1 {
				t.Errorf("fault event gen = %d, want 1", ev.Gen)
			}
			if ev.Err == "" {
				t.Error("fault event missing panic value")
			}
		}
		if ev.Kind == EventHalt {
			halt = true
			break
		}
	}
	if !fault || !halt {
		t.Errorf("fault=%v halt=%v, want both", fault, halt)
	}
	s.Close()
}

func mustSym(t *testing.T, s *Session, name string) uint64 {
	t.Helper()
	a, err := s.Program().Symbol(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestServeFaultErrored covers the terminal paths: a fault with no
// checkpoint to rebuild from, and MaxFaults consecutive faults, both land
// the session in the errored state with the panic value surfaced.
func TestServeFaultErrored(t *testing.T) {
	t.Run("no-checkpoint", func(t *testing.T) {
		srv := New(Config{
			Quantum: 10, // CheckpointEvery off: first fault is fatal
			FaultInject: func(id, nq uint64, m *machine.Machine) error {
				if nq == 2 {
					return fmt.Errorf("injected fault")
				}
				return nil
			},
		})
		defer srv.Close()
		s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
		if st := s.Wait(); st != StateErrored {
			t.Fatalf("state = %v, want errored", st)
		}
		if s.Err() == nil {
			t.Error("errored session has nil Err")
		}
		if err := s.Continue(0); err != ErrErrored {
			t.Errorf("Continue on errored = %v, want ErrErrored", err)
		}
		if _, err := s.ReadQuad(0); err != ErrErrored {
			t.Errorf("ReadQuad on errored = %v, want ErrErrored", err)
		}
		s.Close() // errored sessions release cleanly
		if st := s.State(); st != StateClosed {
			t.Errorf("state after close = %v, want closed", st)
		}
	})
	t.Run("max-faults", func(t *testing.T) {
		srv := New(Config{
			Quantum:         10,
			CheckpointEvery: 1,
			MaxFaults:       2,
			FaultInject: func(id, nq uint64, m *machine.Machine) error {
				if nq >= 2 {
					return fmt.Errorf("injected fault at quantum %d", nq)
				}
				return nil
			},
		})
		defer srv.Close()
		s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
		if st := s.Wait(); st != StateErrored {
			t.Fatalf("state = %v, want errored", st)
		}
		st := srv.Stats()
		if st.Faults != 2 {
			t.Errorf("faults = %d, want 2 (MaxFaults)", st.Faults)
		}
		if st.Recoveries != 1 {
			t.Errorf("recoveries = %d, want 1 (second fault is terminal)", st.Recoveries)
		}
	})
}

// TestSnapshotRewind drives the snapshot/restore session ops: an explicit
// snapshot creates a rewind point (with a stable content hash), and
// Rewind — including from the halted state — replays to the same final
// memory.
func TestSnapshotRewind(t *testing.T) {
	srv := New(Config{Quantum: 10})
	defer srv.Close()
	s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	vAddr := mustSym(t, s, "v")

	if _, _, err := s.SnapshotNow(); err != nil {
		t.Fatalf("snapshot of idle fresh session: %v", err)
	}
	if err := s.Continue(15); err != nil { // partway into the countdown
		t.Fatal(err)
	}
	if st := s.Wait(); st != StateIdle {
		t.Fatalf("state = %v, want idle", st)
	}
	n1, h1, err := s.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	n2, h2, err := s.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || h1 != h2 {
		t.Errorf("back-to-back snapshots differ: %d/%s vs %d/%s", n1, h1, n2, h2)
	}
	if n1 == 0 || len(h1) != 64 {
		t.Errorf("implausible snapshot size/hash: %d/%q", n1, h1)
	}
	midStats, _ := s.Stats()
	midV, err := s.ReadQuad(vAddr)
	if err != nil {
		t.Fatal(err)
	}

	// Run to completion, then rewind out of the halted state.
	if err := s.Continue(0); err != nil {
		t.Fatal(err)
	}
	if st := s.Wait(); st != StateHalted {
		t.Fatalf("state = %v, want halted", st)
	}
	if err := s.Rewind(); err != nil {
		t.Fatalf("rewind from halted: %v", err)
	}
	if st := s.State(); st != StateIdle {
		t.Fatalf("state after rewind = %v, want idle", st)
	}
	backStats, _ := s.Stats()
	if backStats.AppInsts != midStats.AppInsts {
		t.Errorf("rewound AppInsts = %d, want %d", backStats.AppInsts, midStats.AppInsts)
	}
	if v, _ := s.ReadQuad(vAddr); v != midV {
		t.Errorf("rewound v = %d, want %d", v, midV)
	}

	// Replay to the end: same final state as the first pass.
	if err := s.Continue(0); err != nil {
		t.Fatal(err)
	}
	if st := s.Wait(); st != StateHalted {
		t.Fatalf("replay state = %v, want halted", st)
	}
	if v, _ := s.ReadQuad(vAddr); v != 1 {
		t.Errorf("replayed v = %d, want 1", v)
	}

	// Sessions without any checkpoint reject restore loudly.
	s2, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Rewind(); err != ErrNoCheck {
		t.Errorf("rewind without checkpoint = %v, want ErrNoCheck", err)
	}
	s2.Close()
	s.Close()
}

// TestConnReadDeadline wires Config.ReadTimeout through ServeConn: a
// client that goes quiet is severed with a timeout, and its session stays
// attachable afterwards.
func TestConnReadDeadline(t *testing.T) {
	srv := New(Config{ReadTimeout: 50 * time.Millisecond})
	defer srv.Close()

	s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}

	client, server := net.Pipe()
	defer client.Close()
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(server) }()

	// One live round trip first, proving the deadline re-arms per read.
	if _, err := client.Write([]byte("{\"op\":\"ping\"}\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}

	// Now go quiet: the server must sever us, not wait forever.
	select {
	case err := <-errc:
		nerr, ok := err.(net.Error)
		if !ok || !nerr.Timeout() {
			t.Errorf("ServeConn returned %v, want a timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("idle connection was not severed by the read deadline")
	}

	// The session outlives its severed connection.
	if _, ok := srv.Attach(s.ID); !ok {
		t.Error("session did not survive the severed connection")
	}
	s.Close()
}

// TestDrain covers graceful drain: running sessions park at a quantum
// boundary with a checkpoint, new admissions and resumes are rejected
// with ErrDraining, and Drain reports quiescence.
func TestDrain(t *testing.T) {
	srv := New(Config{Quantum: 1000, CheckpointEvery: 1})
	defer srv.Close()

	runner, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	idler, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	// A session a backpressure subscriber holds parked, released while
	// the drain runs: the drain sheds it, or refuses its resume.
	held, err := srv.CreateSource(bpProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	if err := held.Watch(&debug.Watchpoint{
		Name: "v", Kind: debug.WatchScalar, Addr: mustSym(t, held, "v"), Size: 8,
	}); err != nil {
		t.Fatal(err)
	}
	sub := held.Subscribe(SubscribeOptions{Depth: 1, Backpressure: true})
	driveUntilParked(t, srv, held)
	if err := runner.Continue(0); err != nil { // never halts on its own
		t.Fatal(err)
	}

	drained := make(chan bool)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	for draining := false; !draining; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		draining = srv.draining
		srv.mu.Unlock()
	}
	sub.Cancel()
	if !<-drained {
		t.Fatal("drain did not quiesce")
	}
	if st := held.State(); st != StateIdle {
		t.Errorf("backpressure-parked session state after release = %v, want idle", st)
	}
	if !slices.ContainsFunc(held.Trace(), func(ev obs.TraceEvent) bool { return ev.Kind == TracePark && ev.Note == "drain" }) {
		t.Errorf("released session's trace has no park noted drain: %+v", held.Trace())
	}
	if st := runner.State(); st != StateIdle {
		t.Errorf("running session state after drain = %v, want idle (parked)", st)
	}
	foundShed := false
	for _, ev := range runner.Events() {
		if ev.Kind == EventShed {
			foundShed = true
		}
	}
	if !foundShed {
		t.Error("parked session has no shed event")
	}
	if !slices.ContainsFunc(runner.Trace(), func(ev obs.TraceEvent) bool { return ev.Kind == TracePark && ev.Note == "drain" }) {
		t.Errorf("trace has no park noted drain: %+v", runner.Trace())
	}
	if err := runner.Continue(0); err != ErrDraining {
		t.Errorf("Continue while draining = %v, want ErrDraining", err)
	}
	if _, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise)); err != ErrDraining {
		t.Errorf("Create while draining = %v, want ErrDraining", err)
	}
	// Drain checkpointed the parked sessions: both can rewind.
	if err := runner.Rewind(); err != nil {
		t.Errorf("parked session rewind: %v", err)
	}
	if err := idler.Rewind(); err != nil {
		t.Errorf("idle session rewind: %v", err)
	}
}

// TestDrainShedsHeldSession holds a backpressure subscriber through a
// whole drain. The session it parked has no worker to park it, so Drain
// must shed it at once, as it sheds a refused resume, rather than wait out
// its timeout on it, and must checkpoint it: with periodic checkpoints
// off, Drain's is the only one Rewind can restore.
func TestDrainShedsHeldSession(t *testing.T) {
	srv := New(Config{Quantum: 1000})
	defer srv.Close()

	held, err := srv.CreateSource(bpProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	if err := held.Watch(&debug.Watchpoint{
		Name: "v", Kind: debug.WatchScalar, Addr: mustSym(t, held, "v"), Size: 8,
	}); err != nil {
		t.Fatal(err)
	}
	sub := held.Subscribe(SubscribeOptions{Depth: 1, Backpressure: true})
	defer sub.Cancel()
	driveUntilParked(t, srv, held)

	start := time.Now()
	if !srv.Drain(5 * time.Second) {
		t.Fatal("drain did not quiesce")
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Drain took %v with a backpressure-parked session held, want well under 1s", took)
	}
	if st := held.State(); st != StateIdle {
		t.Errorf("held session state after drain = %v, want idle", st)
	}
	if !slices.ContainsFunc(held.Trace(), func(ev obs.TraceEvent) bool { return ev.Kind == TracePark && ev.Note == "drain" }) {
		t.Errorf("held session's trace has no park noted drain: %+v", held.Trace())
	}
	if !slices.ContainsFunc(held.Events(), func(ev Event) bool { return ev.Kind == EventShed }) {
		t.Error("held session has no shed event")
	}
	if err := held.Rewind(); err != nil {
		t.Errorf("held session rewind: %v", err)
	}
}

// chaosSchedule is a seeded per-session fault plan: quantum ordinals that
// panic outright and ordinals that corrupt the machine first. Ordinals
// are strictly increasing across recoveries, so each entry fires once.
type chaosSchedule struct {
	panicAt   map[uint64]bool
	corruptAt map[uint64]bool
}

// TestChaosSoak drives 32 sessions across machine presets while the
// fault-injection harness panics and corrupts machines at seeded quanta
// and subscribers wedge or lag. Every session must end halted with the
// correct final state — or errored, never anything else — and the process
// must survive it all (run under -race in CI).
func TestChaosSoak(t *testing.T) {
	const sessions = 32
	rng := rand.New(rand.NewSource(0xd15e))
	schedules := make(map[uint64]*chaosSchedule, sessions)
	for id := uint64(1); id <= sessions; id++ {
		cs := &chaosSchedule{panicAt: map[uint64]bool{}, corruptAt: map[uint64]bool{}}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			cs.panicAt[2+uint64(rng.Intn(12))] = true
		}
		for i, n := 0, rng.Intn(2); i < n; i++ {
			cs.corruptAt[2+uint64(rng.Intn(12))] = true
		}
		schedules[id] = cs
	}

	srv := New(Config{
		Workers:         4,
		Quantum:         500,
		CheckpointEvery: 2,
		FaultInject: func(id, nq uint64, m *machine.Machine) error {
			cs := schedules[id] // read-only after construction: race-free
			if cs == nil {
				return nil
			}
			switch {
			case cs.corruptAt[nq]:
				// Trash architectural and memory state, then fault: the
				// rebuilt session must never observe this.
				m.Core.Regs[1] ^= 0xffff_ffff
				m.WriteQuad(0x1000, 0xdeadbeef)
				return fmt.Errorf("chaos: corruption at quantum %d", nq)
			case cs.panicAt[nq]:
				panic(fmt.Sprintf("chaos: panic at quantum %d", nq))
			}
			return nil
		},
	})
	defer srv.Close()

	presets := machine.Presets()
	prog := strings.Replace(countdownProg, "li  r2, 10", "li  r2, 2000", 1)

	var wg sync.WaitGroup
	results := make([]State, sessions+1)
	finals := make([]uint64, sessions+1)
	errs := make([]error, sessions+1)
	for i := 0; i < sessions; i++ {
		preset := presets[i%len(presets)]
		mcfg, ok := machine.PresetConfig(preset)
		if !ok {
			t.Fatalf("no preset %q", preset)
		}
		s, err := srv.CreateSourceWith(prog, debug.DefaultOptions(debug.BackendDise),
			SessionConfig{Machine: mcfg})
		if err != nil {
			t.Fatal(err)
		}
		// A third of the sessions carry a watchpoint so recovery also
		// exercises the debugger checkpoint/rebind path; their stores
		// pause the run, and the driver below just continues through.
		if s.ID%3 == 0 {
			if err := s.Watch(&debug.Watchpoint{
				Name: "v", Kind: debug.WatchScalar, Addr: mustSym(t, s, "v"), Size: 8,
				Cond: &debug.Condition{Op: debug.CondEq, Value: 1000},
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Wedged subscriber: never reads, tiny buffer — must be severed as
		// a slow consumer without stalling the workers.
		s.Subscribe(SubscribeOptions{Depth: 1})
		// Slow subscriber: drains with a delay.
		slow := s.Subscribe(SubscribeOptions{Depth: 16})
		go func() {
			for range slow.Events() {
				time.Sleep(100 * time.Microsecond)
			}
		}()

		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			if err := s.Continue(0); err != nil {
				errs[s.ID] = err
				return
			}
			for {
				st := s.Wait()
				if st == StateIdle { // watch pause or shed: keep going
					if err := s.Continue(0); err != nil {
						errs[s.ID] = err
						return
					}
					continue
				}
				results[s.ID] = st
				if st == StateHalted {
					v, err := s.ReadQuad(mustSym(t, s, "v"))
					if err != nil {
						errs[s.ID] = err
						return
					}
					finals[s.ID] = v
				}
				return
			}
		}(s)
	}
	wg.Wait()

	halted, errored := 0, 0
	for id := uint64(1); id <= sessions; id++ {
		if errs[id] != nil {
			t.Errorf("session %d driver error: %v", id, errs[id])
			continue
		}
		switch results[id] {
		case StateHalted:
			halted++
			if finals[id] != 1 {
				t.Errorf("session %d halted with v = %d, want 1", id, finals[id])
			}
		case StateErrored:
			errored++ // consecutive scheduled faults can legitimately exhaust MaxFaults
		default:
			t.Errorf("session %d ended in %v, want halted or errored", id, results[id])
		}
	}
	if halted == 0 {
		t.Error("no session survived the chaos — recovery is not recovering")
	}
	st := srv.Stats()
	if st.Faults == 0 {
		t.Error("chaos ran with zero faults — the schedule never fired")
	}
	if st.Recoveries == 0 {
		t.Error("faults fired but nothing recovered")
	}
	t.Logf("chaos: %d halted, %d errored, faults=%d recoveries=%d slow=%d",
		halted, errored, st.Faults, st.Recoveries, st.SlowConsumers)
}
