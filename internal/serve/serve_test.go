package serve

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bpred"
	"repro/internal/debug"
	idise "repro/internal/dise"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// countdownProg stores 10..1 to v and halts; every store is a user
// transition for a watchpoint on v.
const countdownProg = `
.data
.align 8
v: .quad 0
.text
.entry main
main:
    la  r1, v
    li  r2, 10
loop:
.stmt
    stq r2, 0(r1)
    subq r2, #1, r2
    bne r2, loop
    halt
`

// spinProg never halts: an always-taken branch around a counter.
const spinProg = `
.text
.entry main
main:
    li r1, 1
loop:
    addq r2, #1, r2
    addq r2, #1, r2
    bne r1, loop
    halt
`

// machineFingerprint is every observable surface the equivalence test
// compares: all statistics plus the architectural stopping point.
type machineFingerprint struct {
	Pipe  pipeline.Stats
	Trans debug.TransitionStats
	Mem   machine.MemStats
	BP    bpred.Stats
	Dise  idise.Stats
	PC    uint64
	Regs  [32]uint64
	Hot   uint64

	// Post-run hierarchy warmth, beyond the counters: a residency probe
	// of the watched line and the latency of a deterministic cold access.
	// These are sensitive to the cache's flattened line storage and LRU
	// clocks themselves — a recycled machine whose Flush/Reset left stale
	// lines or a saturated clock diverges here even if the statistics
	// happen to agree.
	HotLine bool
	ColdLat uint64
}

// runDebugWorkload loads the gcc kernel on m, attaches a DISE-backend
// debugger with scalar and range watchpoints, runs a fixed budget, and
// fingerprints everything a client could observe.
func runDebugWorkload(t *testing.T, m *machine.Machine) machineFingerprint {
	t.Helper()
	spec, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("no gcc workload")
	}
	w := workload.MustBuild(spec, 1<<20)
	m.Load(w.Program)
	d := debug.New(m, debug.DefaultOptions(debug.BackendDise))
	if err := d.Watch(&debug.Watchpoint{Name: "hot", Kind: debug.WatchScalar, Addr: w.WP.Hot, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Watch(&debug.Watchpoint{Name: "warm", Kind: debug.WatchScalar, Addr: w.WP.Warm1, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(40_000)
	if err != nil {
		t.Fatal(err)
	}
	var regs [32]uint64
	copy(regs[:], m.Core.Regs[:])
	mem := m.MemStats() // snapshot before the warmth probes mutate it
	return machineFingerprint{
		Pipe:    st,
		Trans:   d.Stats(),
		Mem:     mem,
		BP:      m.Core.BP.Stats(),
		Dise:    m.Engine.Stats(),
		PC:      m.Core.PC(),
		Regs:    regs,
		Hot:     m.ReadQuad(w.WP.Hot),
		HotLine: m.Hier.L1D.Probe(w.WP.Hot),
		ColdLat: m.Hier.DataLatency(0x7F00_0000, false, 1<<40),
	}
}

// dirty runs a different program with a different back end so the
// recycled machine's memory, caches, predictor, engine, protections, and
// hooks are all visibly non-fresh before the Reset under test.
func dirty(t *testing.T, m *machine.Machine) {
	t.Helper()
	spec, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("no mcf workload")
	}
	w := workload.MustBuild(spec, 1<<20)
	m.Load(w.Program)
	d := debug.New(m, debug.DefaultOptions(debug.BackendVirtualMemory))
	if err := d.Watch(&debug.Watchpoint{Name: "hot", Kind: debug.WatchScalar, Addr: w.WP.Hot, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(15_000); err != nil {
		t.Fatal(err)
	}
	if m.Core.Prot.ProtectedPages() == 0 {
		t.Fatal("dirtying run left no page protections — test lost its teeth")
	}
}

// TestPoolRecycledMachineEquivalentToFresh is the pool's contract: after
// any use whatsoever, Put+Get hands back a machine whose observable
// behavior — pipeline stats, transition stats, memory-system stats,
// predictor and engine stats, final PC, registers, and memory — is
// bit-identical to a freshly constructed machine's on the same workload.
func TestPoolRecycledMachineEquivalentToFresh(t *testing.T) {
	cfg := machine.DefaultConfig()
	want := runDebugWorkload(t, machine.New(cfg))

	pool := NewPoolSet(1)
	m := pool.Get(cfg)
	dirty(t, m)
	pool.Put(m)
	recycled := pool.Get(cfg)
	if recycled != m {
		t.Fatal("pool built a new machine instead of recycling")
	}
	got := runDebugWorkload(t, recycled)
	if got != want {
		t.Errorf("recycled machine diverged from fresh:\n got %+v\nwant %+v", got, want)
	}

	// And a second recycle, to catch state that only leaks on the second
	// generation (e.g. append cursors advanced during the measured run).
	pool.Put(recycled)
	again := pool.Get(cfg)
	if got := runDebugWorkload(t, again); got != want {
		t.Errorf("second-generation machine diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestMachineResetDropsDebuggerState(t *testing.T) {
	m := machine.NewDefault()
	dirty(t, m)
	m.Reset()
	if m.Core.Prot.ProtectedPages() != 0 {
		t.Error("Reset kept page protections")
	}
	if m.Core.Hooks.OnStore != nil || m.Core.Hooks.OnInst != nil || m.Core.Hooks.OnTrap != nil {
		t.Error("Reset kept debugger hooks")
	}
	if n := len(m.Engine.Productions()); n != 0 {
		t.Errorf("Reset kept %d productions", n)
	}
	if m.Program != nil {
		t.Error("Reset kept the program")
	}
	if st := m.Core.Stats(); st != (pipeline.Stats{}) {
		t.Errorf("Reset kept stats: %+v", st)
	}
}

// TestPoolSetRecycledPerKeyEquivalentToFresh extends the recycle
// contract to the multi-config pool: for each preset, a machine recycled
// under that key behaves bit-identically to a fresh machine of the same
// configuration, and keys never hand out each other's machines.
func TestPoolSetRecycledPerKeyEquivalentToFresh(t *testing.T) {
	small, ok := machine.PresetConfig("small-cache")
	if !ok {
		t.Fatal("no small-cache preset")
	}
	for _, cfg := range []machine.Config{machine.DefaultConfig(), small} {
		want := runDebugWorkload(t, machine.New(cfg))

		ps := NewPoolSet(4)
		m := ps.Get(cfg)
		dirty(t, m)
		ps.Put(m)
		recycled := ps.Get(cfg)
		if recycled != m {
			t.Fatal("pool set built a new machine instead of recycling")
		}
		if got := runDebugWorkload(t, recycled); got != want {
			t.Errorf("recycled machine diverged from fresh:\n got %+v\nwant %+v", got, want)
		}
	}

	// Keys are watertight: a parked default machine must not satisfy a
	// small-cache Get.
	ps := NewPoolSet(4)
	def := ps.Get(machine.DefaultConfig())
	ps.Put(def)
	if got := ps.Get(small); got == def {
		t.Fatal("pool set crossed configuration keys")
	}
	if ps.Configs() != 1 || ps.Idle() != 1 {
		t.Errorf("configs=%d idle=%d, want 1/1", ps.Configs(), ps.Idle())
	}
}

// TestPoolSetConcurrentPerKey hammers Get/Put from many goroutines over
// several config keys at a tiny shared capacity, so Puts constantly race
// the cap check and the map resizes (keys are inserted and deleted as
// lists fill and drain). The reservation counter must not leak: after
// the storm the set must still accept exactly cap idle machines.
func TestPoolSetConcurrentPerKey(t *testing.T) {
	small, _ := machine.PresetConfig("small-cache")
	nobp, _ := machine.PresetConfig("no-bpred")
	cfgs := []machine.Config{machine.DefaultConfig(), small, nobp}
	const cap = 2
	ps := NewPoolSet(cap)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		cfg := cfgs[g%len(cfgs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				m := ps.Get(cfg)
				if m.Cfg != cfg {
					t.Error("pool set returned a machine of the wrong configuration")
					return
				}
				ps.Put(m)
			}
		}()
	}
	wg.Wait()

	if got := ps.Idle(); got > cap {
		t.Errorf("idle = %d beyond capacity %d", got, cap)
	}
	st := ps.Stats()
	if st.Created == 0 || st.Recycled == 0 {
		t.Errorf("stress exercised nothing: %+v", st)
	}
	// A leaked reservation would permanently shrink the effective cap:
	// with the storm over, parking cap+1 fresh machines must fill every
	// idle slot exactly.
	for i := 0; i < cap+1; i++ {
		ps.Put(machine.New(cfgs[i%len(cfgs)]))
	}
	if got := ps.Idle(); got != cap {
		t.Errorf("idle after refill = %d, want %d (reservation leak?)", got, cap)
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(cfg)
	t.Cleanup(srv.Close)
	return srv
}

func TestSessionLifecycle(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, Quantum: 500})
	s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Program().Symbol("v")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: v, Size: 8}); err != nil {
		t.Fatal(err)
	}

	// Each continue pauses at the next user transition (one store).
	for i := 10; i >= 1; i-- {
		if err := s.Continue(0); err != nil {
			t.Fatalf("continue at v=%d: %v", i, err)
		}
		if st := s.Wait(); st != StateIdle {
			t.Fatalf("wait at v=%d: state %v", i, st)
		}
		evs := s.Events()
		if len(evs) != 1 || evs[0].Kind != EventWatch || evs[0].Value != uint64(i) {
			t.Fatalf("at v=%d events = %+v", i, evs)
		}
		got, err := s.ReadQuad(v)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(i) {
			t.Fatalf("memory v = %d, want %d", got, i)
		}
	}
	// The last continue runs off the loop into halt.
	if err := s.Continue(0); err != nil {
		t.Fatal(err)
	}
	if st := s.Wait(); st != StateHalted {
		t.Fatalf("final state = %v, want halted", st)
	}
	if evs := s.Events(); len(evs) != 1 || evs[0].Kind != EventHalt {
		t.Fatalf("final events = %+v", evs)
	}
	if st := s.State(); st != StateHalted {
		t.Fatalf("state = %v, want halted", st)
	}
	st, tr := s.Stats()
	if st.AppInsts == 0 || !st.Halted {
		t.Errorf("stats = %+v", st)
	}
	if tr.User != 10 {
		t.Errorf("user transitions = %d, want 10", tr.User)
	}
	if err := s.Continue(0); err != ErrHalted {
		t.Errorf("continue after halt = %v, want ErrHalted", err)
	}
	s.Close()
	if st := s.State(); st != StateClosed {
		t.Errorf("state after close = %v", st)
	}
	if err := s.Continue(0); err != ErrClosed {
		t.Errorf("continue after close = %v, want ErrClosed", err)
	}
}

func TestSessionStep(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 1000})
	s, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(100); err != nil {
		t.Fatal(err)
	}
	if st := s.Wait(); st != StateIdle {
		t.Fatalf("state = %v", st)
	}
	st, _ := s.Stats()
	if st.AppInsts != 100 {
		t.Errorf("stepped %d insts, want 100", st.AppInsts)
	}
	evs := s.Events()
	if len(evs) != 1 || evs[0].Kind != EventStop {
		t.Errorf("events = %+v", evs)
	}
	// Budgets span quanta: 2500 instructions at quantum 1000 needs three
	// scheduling slices.
	if err := s.Continue(2400); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	st, _ = s.Stats()
	if st.AppInsts != 2500 {
		t.Errorf("after continue: %d insts, want 2500", st.AppInsts)
	}
}

// TestSchedulerFairness runs more never-halting sessions than workers and
// checks round-robin progress. All four sessions are created before any
// of them runs and are continued back to back, so session creation does
// not leak into the measurement. Counts are taken at the top of session
// 0's quanta (Config.FaultInject runs there): with one worker no other
// session is mid-quantum, so every session's statistics are exact. The
// first such point after all four are queued is the baseline; over
// session 0's next 20 quanta, every other session must run at least 4
// quanta' worth of instructions (FIFO round-robin gives each exactly 20).
func TestSchedulerFairness(t *testing.T) {
	const (
		quantum = 1000
		n       = 4
		window  = 20
	)
	var (
		sessions [n]*Session
		queued   atomic.Bool // set once all n sessions are continued
		done     = make(chan struct{})
		// Touched only by the worker until done is closed.
		seen        int
		base, delta [n]uint64
	)
	appInsts := func(s *Session) uint64 {
		st, _ := s.Stats()
		return st.AppInsts
	}
	srv := newTestServer(t, Config{Workers: 1, Quantum: quantum,
		FaultInject: func(id, _ uint64, _ *machine.Machine) error {
			if !queued.Load() || id != sessions[0].ID || seen > window {
				return nil
			}
			for i, s := range sessions {
				if seen == 0 {
					base[i] = appInsts(s)
				} else if seen == window {
					delta[i] = appInsts(s) - base[i]
				}
			}
			if seen++; seen > window {
				close(done)
			}
			return nil
		}})
	for i := range sessions {
		s, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	for _, s := range sessions {
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
	}
	queued.Store(true)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("session 0 did not run %d quanta", window)
	}
	t.Logf("instructions per session over session 0's %d quanta: %v", window, delta)
	for i := 1; i < n; i++ {
		if delta[i] < 4*quantum {
			t.Errorf("session %d starved: %d insts while session 0 ran %d",
				i, delta[i], delta[0])
		}
	}
	for _, s := range sessions {
		s.Close()
		if st := s.Wait(); st != StateClosed {
			t.Errorf("close of running session ended in %v", st)
		}
	}
	if got := len(srv.Sessions()); got != 0 {
		t.Errorf("%d sessions left after close", got)
	}
}

// TestServeSoak is the CI race soak: 64 concurrent sessions over a small
// worker pool with small quanta, mixing watchpoint sessions that run to
// halt with budget-bounded spinners that are closed mid-flight.
func TestServeSoak(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4, Quantum: 500, MaxSessions: 128})
	const n = 64
	sessions := make([]*Session, n)
	for i := range sessions {
		var (
			s   *Session
			err error
		)
		if i%2 == 0 {
			s, err = srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
			if err == nil {
				v := s.Program().MustSymbol("v")
				err = s.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: v, Size: 8})
			}
		} else {
			s, err = srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise))
		}
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		budget := uint64(0)
		if i%2 == 1 {
			budget = 10_000
		}
		if err := s.Continue(budget); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range sessions {
		if i%2 == 0 {
			// Watchpoint sessions pause at each of 10 user transitions.
			for s.Wait() == StateIdle {
				if err := s.Continue(0); err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
			}
			if st := s.Wait(); st != StateHalted {
				t.Errorf("session %d ended %v", i, st)
			}
			_, tr := s.Stats()
			if tr.User != 10 {
				t.Errorf("session %d user transitions = %d, want 10", i, tr.User)
			}
		} else {
			if st := s.Wait(); st != StateIdle {
				t.Errorf("spinner %d ended %v", i, st)
			}
			st, _ := s.Stats()
			if st.AppInsts != 10_000 {
				t.Errorf("spinner %d ran %d insts, want 10000", i, st.AppInsts)
			}
		}
		s.Close()
	}
	stats := srv.Stats()
	if stats.SessionsCreated != n || stats.SessionsClosed != n {
		t.Errorf("server stats = %+v", stats)
	}
	if stats.Pool.Recycled == 0 {
		t.Error("soak parked no machines for reuse")
	}
	// A second wave must run on recycled machines, not fresh ones.
	s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Continue(0); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	s.Close()
	if st := srv.Stats().Pool; st.Reused == 0 {
		t.Errorf("second wave did not reuse a machine: %+v", st)
	}
}

// TestServeSoakMixedPush is the CI race soak's heterogeneous variant: 64
// sessions spread over four machine presets, countdown sessions carrying
// push subscribers that assert event order, spinners closed after a
// bounded budget — recycling, push, and scheduling all racing.
func TestServeSoakMixedPush(t *testing.T) {
	presets := []string{"default", "small-cache", "big-l2", "no-bpred"}
	srv := newTestServer(t, Config{Workers: 4, Quantum: 500, MaxSessions: 128})
	const n = 64
	sessions := make([]*Session, n)
	pushed := make([]chan []Event, n)
	for i := range sessions {
		mcfg, ok := machine.PresetConfig(presets[i%len(presets)])
		if !ok {
			t.Fatal("bad preset")
		}
		sc := SessionConfig{Machine: mcfg}
		var (
			s   *Session
			err error
		)
		if i%2 == 0 {
			s, err = srv.CreateSourceWith(countdownProg, debug.DefaultOptions(debug.BackendDise), sc)
			if err == nil {
				v := s.Program().MustSymbol("v")
				err = s.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: v, Size: 8})
			}
		} else {
			s, err = srv.CreateSourceWith(spinProg, debug.DefaultOptions(debug.BackendDise), sc)
		}
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		if i%2 == 0 {
			sub := s.Subscribe(SubscribeOptions{Depth: 64})
			ch := make(chan []Event, 1)
			pushed[i] = ch
			go func() {
				var got []Event
				for ev := range sub.Events() {
					got = append(got, ev)
				}
				ch <- got
			}()
		}
		budget := uint64(0)
		if i%2 == 1 {
			budget = 10_000
		}
		if err := s.Continue(budget); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range sessions {
		if i%2 == 0 {
			for s.Wait() == StateIdle {
				if err := s.Continue(0); err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
			}
			if st := s.Wait(); st != StateHalted {
				t.Errorf("session %d ended %v", i, st)
			}
		} else {
			if st := s.Wait(); st != StateIdle {
				t.Errorf("spinner %d ended %v", i, st)
			}
		}
		s.Close()
	}
	for i, ch := range pushed {
		if ch == nil {
			continue
		}
		got := <-ch
		if len(got) != 11 {
			t.Fatalf("session %d pushed %d events, want 11", i, len(got))
		}
		for j := 0; j < 10; j++ {
			if got[j].Kind != EventWatch || got[j].Value != uint64(10-j) {
				t.Fatalf("session %d event %d = %+v (push order broken)", i, j, got[j])
			}
		}
		if got[10].Kind != EventHalt {
			t.Errorf("session %d final pushed event = %+v", i, got[10])
		}
	}
	st := srv.Stats()
	if st.SlowConsumers != 0 {
		t.Errorf("slow consumers = %d, want 0", st.SlowConsumers)
	}
	if st.PoolConfigs != len(presets) {
		t.Errorf("pool configs = %d, want %d", st.PoolConfigs, len(presets))
	}
	// A second mixed wave must run on recycled machines of each config.
	reusedBefore := st.Pool.Reused
	for _, preset := range presets {
		mcfg, _ := machine.PresetConfig(preset)
		s, err := srv.CreateSourceWith(countdownProg, debug.DefaultOptions(debug.BackendDise),
			SessionConfig{Machine: mcfg})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
		s.Wait()
		s.Close()
	}
	if got := srv.Stats().Pool.Reused - reusedBefore; got < uint64(len(presets)) {
		t.Errorf("second wave reused %d machines, want >= %d", got, len(presets))
	}
}

func TestServerCloseReclaimsRunningSessions(t *testing.T) {
	srv := New(Config{Workers: 2, Quantum: 500})
	var open []*Session
	for i := 0; i < 6; i++ {
		s, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
		open = append(open, s)
	}
	srv.Close()
	for i, s := range open {
		if st := s.State(); st != StateClosed {
			t.Errorf("session %d state = %v after server close", i, st)
		}
	}
	if _, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise)); err != ErrNoServer {
		t.Errorf("create after close = %v, want ErrNoServer", err)
	}
}

// TestWaitTimeout: on a never-halting session the timed wait must come
// back around its deadline reporting the session still running, and must
// observe a stop that happens while waiting.
func TestWaitTimeout(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 1000})
	s, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Continue(0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st, ok := s.WaitTimeout(50 * time.Millisecond)
	if ok || st != StateRunning {
		t.Errorf("timed wait on spinner = (%v,%v), want (running,false)", st, ok)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("timed wait blocked %v past a 50ms deadline", waited)
	}
	s.Close()
	if st, ok := s.WaitTimeout(30 * time.Second); !ok || st != StateClosed {
		t.Errorf("timed wait across close = (%v,%v), want (closed,true)", st, ok)
	}
}

// TestSessionMachineConfigs: one server hosts sessions on different
// machine presets, and their machines recycle under separate pool keys.
func TestSessionMachineConfigs(t *testing.T) {
	small, _ := machine.PresetConfig("small-cache")
	srv := newTestServer(t, Config{Workers: 2, Quantum: 1000})

	sd, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := srv.CreateSourceWith(countdownProg, debug.DefaultOptions(debug.BackendDise),
		SessionConfig{Machine: small})
	if err != nil {
		t.Fatal(err)
	}
	if cfg, preset := ss.MachineConfig(); cfg != small || preset != "small-cache" {
		t.Errorf("session machine config = (%v, %q)", cfg.Cache.L1I.SizeBytes, preset)
	}
	for _, s := range []*Session{sd, ss} {
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
		if st := s.Wait(); st != StateHalted {
			t.Fatalf("state = %v", st)
		}
		s.Close()
	}
	st := srv.Stats()
	if st.PoolConfigs != 2 {
		t.Errorf("pool configs = %d, want 2 (per-config recycling)", st.PoolConfigs)
	}
}

// TestLoadSheddingReject: admissions beyond QueueDepth fail with
// ErrOverloaded and succeed again once load drains.
func TestLoadSheddingReject(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 1000, QueueDepth: 2})
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise))
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	if err := sessions[0].Continue(0); err != nil {
		t.Fatal(err)
	}
	if err := sessions[1].Continue(0); err != nil {
		t.Fatal(err)
	}
	if err := sessions[2].Continue(0); err != ErrOverloaded {
		t.Fatalf("third continue = %v, want ErrOverloaded", err)
	}
	if st := sessions[2].State(); st != StateIdle {
		t.Fatalf("shed session state = %v, want idle", st)
	}
	if st := srv.Stats(); st.Shed != 1 || st.Runnable != 2 {
		t.Errorf("stats after shed = %+v", st)
	}
	// Draining one session frees a slot: recovery is a plain retry.
	sessions[0].Close()
	if st := sessions[0].Wait(); st != StateClosed {
		t.Fatalf("close ended in %v", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := sessions[2].Continue(10)
		if err == nil {
			break
		}
		if err != ErrOverloaded {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("shed session never recovered")
		}
		time.Sleep(time.Millisecond)
	}
	sessions[2].Wait()
}

// TestShedSoak drives the server well past saturation and asserts the
// run queue stays bounded at QueueDepth while every session still
// completes its budget — overload costs retries, not correctness.
func TestShedSoak(t *testing.T) {
	const (
		depth  = 4
		n      = 24
		budget = 20_000
	)
	srv := newTestServer(t, Config{Workers: 2, Quantum: 2000, QueueDepth: depth})
	sessions := make([]*Session, n)
	for i := range sessions {
		s, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	pending := make(map[int]bool, n)
	for i := range sessions {
		pending[i] = true
	}
	deadline := time.Now().Add(60 * time.Second)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions never admitted", len(pending))
		}
		for i := range pending {
			switch err := sessions[i].Continue(budget); err {
			case nil:
				delete(pending, i)
			case ErrOverloaded:
				// Saturated: retry on the next sweep.
			default:
				t.Fatal(err)
			}
		}
		if st := srv.Stats(); st.Runnable > depth || st.QueueLen > depth {
			t.Fatalf("queue exceeded depth: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	for i, s := range sessions {
		if st := s.Wait(); st != StateIdle {
			t.Fatalf("session %d ended %v", i, st)
		}
		st, _ := s.Stats()
		if st.AppInsts != budget {
			t.Errorf("session %d ran %d insts, want %d", i, st.AppInsts, budget)
		}
		s.Close()
	}
	if st := srv.Stats(); st.Shed == 0 {
		t.Errorf("soak never saturated: %+v", st)
	}
}

// TestSubscribePush: a subscription delivers events in execution order,
// independent of the pull queue, and closes with the session.
func TestSubscribePush(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, Quantum: 500})
	s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	v := s.Program().MustSymbol("v")
	if err := s.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: v, Size: 8}); err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(SubscribeOptions{Depth: 64})
	done := make(chan []Event, 1)
	go func() {
		var got []Event
		for ev := range sub.Events() {
			got = append(got, ev)
		}
		done <- got
	}()
	for s.Wait() != StateHalted {
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	got := <-done
	if sub.Dropped() {
		t.Error("subscription dropped despite ample buffer")
	}
	// 10 watch events (values 10..1) then the halt, in execution order.
	if len(got) != 11 {
		t.Fatalf("pushed %d events, want 11: %+v", len(got), got)
	}
	for i := 0; i < 10; i++ {
		if got[i].Kind != EventWatch || got[i].Value != uint64(10-i) {
			t.Fatalf("event %d = %+v, want watch value %d", i, got[i], 10-i)
		}
	}
	if got[10].Kind != EventHalt {
		t.Fatalf("last event = %+v, want halt", got[10])
	}
	// The pull queue saw the same events: a subscription is a tee, not a
	// drain (nothing called Events during the run, so all 11 remain).
	if evs := s.Events(); len(evs) != 11 {
		t.Errorf("pull queue has %d events, want 11", len(evs))
	}
}

// TestSubscribeSlowConsumer: a subscriber that never drains is severed
// with Dropped set, its onDrop hook fires, and the session itself is
// unharmed.
func TestSubscribeSlowConsumer(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 500})
	s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	v := s.Program().MustSymbol("v")
	if err := s.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: v, Size: 8}); err != nil {
		t.Fatal(err)
	}
	dropped := make(chan struct{})
	sub := s.Subscribe(SubscribeOptions{Depth: 2, OnDrop: func() { close(dropped) }}) // room for 2 of the 11 events
	for s.Wait() != StateHalted {
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-dropped:
	case <-time.After(30 * time.Second):
		t.Fatal("onDrop never fired")
	}
	if !sub.Dropped() {
		t.Error("subscription not marked dropped")
	}
	if st := srv.Stats(); st.SlowConsumers != 1 {
		t.Errorf("slow consumers = %d, want 1", st.SlowConsumers)
	}
	// The channel closed after the overflow; the two buffered events are
	// still deliverable, in order.
	var got []Event
	for ev := range sub.Events() {
		got = append(got, ev)
	}
	if len(got) != 2 || got[0].Value != 10 || got[1].Value != 9 {
		t.Errorf("buffered events = %+v", got)
	}
	// The session itself is unharmed: its queue has everything.
	if evs := s.Events(); len(evs) != 11 {
		t.Errorf("session queue has %d events, want 11", len(evs))
	}
	s.Close()
}

// TestEventQueueBounded: an undrained pull queue is capped at
// Config.EventBuffer — the oldest events go, the drops are counted, and
// the tail (ending in the halt) survives.
func TestEventQueueBounded(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 500, EventBuffer: 8})
	s, err := srv.CreateSource(countdown30Prog, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	v := s.Program().MustSymbol("v")
	if err := s.Watch(&debug.Watchpoint{Name: "v", Kind: debug.WatchScalar, Addr: v, Size: 8}); err != nil {
		t.Fatal(err)
	}
	// Run to halt without ever draining: 31 events hit an 8-deep queue.
	for s.Wait() != StateHalted {
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
	}
	evs := s.Events()
	if len(evs) > 8 {
		t.Fatalf("queue grew to %d events past the 8 bound", len(evs))
	}
	if len(evs) == 0 || evs[len(evs)-1].Kind != EventHalt {
		t.Fatalf("tail not preserved: %+v", evs)
	}
	if st := srv.Stats(); st.EventsDropped == 0 {
		t.Errorf("no drops counted: %+v", st)
	}
}

// TestSessionLimitConcurrent hammers Create from many goroutines: the
// cap must hold even when admissions race (the run queue's cannot-block
// invariant depends on open sessions never exceeding MaxSessions).
func TestSessionLimitConcurrent(t *testing.T) {
	const limit = 8
	srv := newTestServer(t, Config{Workers: 2, MaxSessions: limit})
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
	)
	for i := 0; i < 4*limit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise)); err == nil {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if admitted != limit {
		t.Errorf("admitted %d sessions, want exactly %d", admitted, limit)
	}
	if got := len(srv.Sessions()); got != limit {
		t.Errorf("open sessions = %d, want %d", got, limit)
	}
}

// TestPoolIdleDisabled: PoolIdle < 0 must mean "keep nothing", not the
// MaxSessions default.
func TestPoolIdleDisabled(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, PoolIdle: -1})
	s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st := srv.Stats().Pool; st.Dropped != 1 || st.Recycled != 0 {
		t.Errorf("pool stats with idle pooling disabled = %+v", st)
	}
}

func TestSessionLimit(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if _, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := srv.CreateSource(spinProg, debug.DefaultOptions(debug.BackendDise))
	if err == nil || !strings.Contains(err.Error(), "session limit") {
		t.Errorf("create past limit = %v", err)
	}
}
