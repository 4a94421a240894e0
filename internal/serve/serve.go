// Package serve is the concurrent debug service: it multiplexes many
// independent debug sessions over pooled reusable simulated machines and
// a fixed set of scheduler workers.
//
// The pieces:
//
//   - PoolSet recycles machines, one idle list per machine configuration.
//     machine.Machine.Reset reaches down through memory, the cache
//     hierarchy, the branch predictor, the DISE engine, and the pipeline
//     core, so a recycled machine is bit-identical to a fresh one of the
//     same configuration and sessions never observe each other.
//   - Session is one create/watch/break/continue/step/stats/close
//     lifecycle with a per-session event queue. Execution is asynchronous:
//     Continue returns immediately and Wait observes the next pause.
//     Subscribe additionally tees events into a bounded queue per
//     subscriber as they fire, for push-style clients.
//   - Server owns the sessions and runs them: each of M worker goroutines
//     repeatedly takes a runnable session from a FIFO run queue and
//     executes one bounded step-quantum (Config.Quantum application
//     instructions), requeueing the session if it has budget left. N
//     sessions therefore share M workers round-robin, and no session can
//     monopolize a worker for more than a quantum. Sessions carry their
//     own machine configuration, so one server hosts heterogeneous
//     machines.
//   - At most Config.QueueDepth sessions are runnable at once; a Continue
//     past that bound is rejected with ErrOverloaded and can simply be
//     retried.
//   - proto.go serves the session API as a line-delimited JSON protocol
//     over any connection (cmd/disesrv binds it to TCP and stdio),
//     including asynchronous event push on subscribed connections.
//
// The simulated machine is single-threaded by design; the service keeps
// it that way by construction — a session is on the run queue at most
// once, and only the worker that dequeued it touches its machine. A
// running session is always either queued or on a worker: nothing parks
// one anywhere else, so Close, Drain and the workers need no other case.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/debug"
	"repro/internal/machine"
)

// ErrOverloaded rejects an admission past Config.QueueDepth: that many
// sessions are runnable already. Runnable sessions are undisturbed, and
// the rejected session stays idle, so a retry may succeed later.
var ErrOverloaded = errors.New("serve: server overloaded, run queue full")

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of scheduler goroutines (default GOMAXPROCS).
	Workers int
	// Quantum is the largest number of application instructions one
	// scheduling slice may execute (default 25000). Smaller quanta are
	// fairer; larger quanta amortize scheduling overhead.
	Quantum uint64
	// MaxSessions bounds concurrently open sessions (default 1024).
	MaxSessions int
	// PoolIdle is how many reset machines the pool keeps warm, in total
	// across machine configurations. 0 selects the default, MaxSessions —
	// a steady-state service then allocates no machines, at the cost of
	// retaining up to MaxSessions idle machines after a load spike.
	// Negative disables idle pooling entirely (every close discards the
	// machine).
	PoolIdle int
	// Machine configures pooled machines for sessions that do not bring
	// their own configuration (default machine.DefaultConfig).
	Machine machine.Config
	// QueueDepth bounds how many sessions may be runnable (queued or
	// executing) at once; admissions beyond it are rejected with
	// ErrOverloaded. 0 selects MaxSessions, which never rejects (a
	// session is runnable at most once).
	QueueDepth int
	// PushBuffer is the default subscription queue depth (a subscribe op
	// or SubscribeOptions without a depth of its own): a subscriber that
	// falls this many events behind is dropped as a slow consumer. It also
	// sizes each protocol connection's response outbox (the queue between
	// the request handler and the per-connection writer goroutine), so
	// very small values throttle response pipelining (default 128).
	PushBuffer int
	// EventBuffer bounds each session's pull-side event queue (the one
	// wait/events drain). When it fills — a client that only subscribes,
	// or never polls — the oldest half is discarded, counted in
	// ServerStats.EventsDropped, so an undrained hot-loop watchpoint
	// cannot grow server memory without bound (default 65536). It also
	// caps every subscription's depth.
	EventBuffer int
	// CheckpointEvery, when positive, checkpoints each session every K
	// completed quanta (a machine snapshot plus the debugger companion),
	// giving fault recovery and the restore wire op a rewind point at
	// most K quanta old. 0 disables periodic checkpointing; the snapshot
	// wire op still creates explicit checkpoints.
	CheckpointEvery int
	// MaxFaults bounds consecutive faults per session: after this many
	// panicked quanta with no completed quantum in between, the session
	// stops being rebuilt and transitions to the terminal errored state
	// (default 3).
	MaxFaults int
	// FaultInject, when set, runs at the top of every quantum with the
	// session ID, the per-session quantum ordinal (strictly increasing
	// across recoveries), and the machine about to run. A panic — or a
	// returned error, which is panicked on the hook's behalf — unwinds
	// into the worker's recovery path exactly like a real fault; mutating
	// the machine simulates state corruption that the rebuilt session
	// discards. Test-only.
	FaultInject func(id uint64, quantum uint64, m *machine.Machine) error
	// ReadTimeout bounds how long ServeConn waits for the next request
	// line on deadline-capable transports (net.Conn): a client idle past
	// it is severed, leaving its sessions attachable. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response/event frame write on
	// deadline-capable transports; a client wedging the transport past it
	// is severed. 0 disables.
	WriteTimeout time.Duration
	// TraceDepth sizes each session's scheduling trace ring: the last N
	// scheduling events (enqueue, quantum start/end with wall-clock
	// duration and instructions retired, park, checkpoint, fault,
	// recovery), dumpable via Session.Trace and the trace wire op. The
	// ring is per-session, preallocated, and appended under the session's
	// own lock — no shared lock, no allocation per event. 0 selects the
	// default 256; negative disables tracing.
	TraceDepth int
	// Logger, when set, receives structured logs for connection
	// open/close (with remote address and op counts), drain progress, and
	// session fault/recovery/errored events. nil discards.
	Logger *slog.Logger
}

// DefaultConfig returns the default service configuration.
func DefaultConfig() Config {
	return Config{
		Workers:     runtime.GOMAXPROCS(0),
		Quantum:     25_000,
		MaxSessions: 1024,
		Machine:     machine.DefaultConfig(),
		PushBuffer:  128,
		EventBuffer: 65536,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.Quantum == 0 {
		c.Quantum = d.Quantum
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = d.MaxSessions
	}
	switch {
	case c.PoolIdle == 0:
		c.PoolIdle = c.MaxSessions
	case c.PoolIdle < 0:
		c.PoolIdle = 0
	}
	zero := machine.Config{}
	if c.Machine == zero {
		c.Machine = d.Machine
	}
	if c.QueueDepth <= 0 || c.QueueDepth > c.MaxSessions {
		c.QueueDepth = c.MaxSessions
	}
	if c.PushBuffer <= 0 {
		c.PushBuffer = d.PushBuffer
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = d.EventBuffer
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 3
	}
	switch {
	case c.TraceDepth == 0:
		c.TraceDepth = 256
	case c.TraceDepth < 0:
		c.TraceDepth = 0
	}
	return c
}

// SessionConfig carries per-session creation parameters for CreateWith.
type SessionConfig struct {
	// Machine selects this session's machine configuration; the zero
	// value selects the server default (Config.Machine). Sessions with
	// different configurations recycle machines independently. The
	// session is named after the preset Machine equals, if any
	// (machine.PresetName): the wire protocol echoes that name, and the
	// per-preset metrics count the session under it.
	Machine machine.Config
}

// ServerStats counts server activity (also the wire protocol's
// server-wide stats payload, hence the JSON tags). The counters are
// read from the same obs instruments /metrics exposes, so the two views
// cannot disagree.
type ServerStats struct {
	SessionsCreated uint64    `json:"sessions_created"`
	SessionsClosed  uint64    `json:"sessions_closed"`
	QuantaRun       uint64    `json:"quanta_run"`
	Shed            uint64    `json:"shed"`           // admissions rejected by load shedding
	SlowConsumers   uint64    `json:"slow_consumers"` // subscriptions dropped for not keeping up
	EventsDropped   uint64    `json:"events_dropped"` // pull-queue events discarded at EventBuffer
	Faults          uint64    `json:"faults"`         // quanta that panicked
	Recoveries      uint64    `json:"recoveries"`     // sessions rebuilt from a checkpoint
	Runnable        int       `json:"runnable"`       // sessions admitted to run right now
	QueueLen        int       `json:"queue_len"`      // run-queue length right now
	PoolConfigs     int       `json:"pool_configs"`   // distinct machine configurations with parked machines
	Pool            PoolStats `json:"pool"`
	// PoolByConfig breaks the pool's idle machines down by machine preset
	// name; configurations clients brought themselves merge under
	// "custom".
	PoolByConfig map[string]int `json:"pool_by_config,omitempty"`
}

// Server multiplexes debug sessions over pooled machines and scheduler
// workers. Create with New; stop with Close.
type Server struct {
	cfg    Config
	pools  *PoolSet
	met    *serveMetrics
	logger *slog.Logger

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when a session is dropped
	sessions map[uint64]*Session
	nextID   uint64
	closed   bool
	draining bool // Drain in progress: no new admissions, running sessions park

	// runq is the run queue, which the workers range over. Every send
	// happens under mu after the closed check, for a session that holds
	// one of the runnable slots and is not queued, so queued <= runnable
	// <= QueueDepth, the channel's capacity, and a send never blocks.
	// Close closes it once the session table is empty. A session is
	// queued at most once.
	runq     chan *Session
	runnable int // queued + executing sessions (bounded by QueueDepth)

	wg sync.WaitGroup
}

// New builds a server and starts its workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	srv := &Server{
		cfg:      cfg,
		pools:    NewPoolSet(cfg.PoolIdle),
		met:      newServeMetrics(),
		logger:   cfg.Logger,
		sessions: make(map[uint64]*Session),
		runq:     make(chan *Session, cfg.QueueDepth),
	}
	if srv.logger == nil {
		srv.logger = slog.New(slog.DiscardHandler)
	}
	srv.met.registerServerFuncs(srv)
	srv.cond = sync.NewCond(&srv.mu)
	srv.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go srv.worker()
	}
	return srv
}

// Config returns the server's effective configuration.
func (srv *Server) Config() Config { return srv.cfg }

// worker is one scheduler goroutine: take a session off the run queue,
// run a quantum, requeue it. It exits once Close closes the queue.
func (srv *Server) worker() {
	defer srv.wg.Done()
	for s := range srv.runq {
		t0 := time.Now()
		again := s.runQuantumGuarded(srv.cfg.Quantum)
		// Observed here, around the guarded run, so the histogram count
		// equals QuantaRun by construction (faulted quanta included, with
		// their recovery time in the observation).
		srv.met.quantumNs.Observe(uint64(time.Since(t0)))
		srv.met.quanta.Inc()
		srv.mu.Lock()
		if again && !srv.closed && !srv.draining {
			srv.runq <- s
			srv.mu.Unlock()
			continue
		}
		srv.runnable--
		if srv.runnable == 0 {
			srv.cond.Broadcast() // Drain waits for the last quantum to land
		}
		closed := srv.closed
		srv.mu.Unlock()
		switch {
		case again && closed:
			// Shutdown raced the requeue: park the session stopped so
			// Close can finalize it.
			s.mu.Lock()
			if s.state == StateRunning {
				s.state = StateIdle
			}
			if s.closeReq {
				s.finalizeLocked()
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		case again:
			// Draining: park the session idle with an EventShed — a
			// Continue after the next start resumes it from here (its
			// checkpoint preserves the rewind point too).
			s.pauseShed()
		}
	}
}

// enqueue admits s to the run queue on a user-initiated resume, rejected
// with ErrOverloaded once QueueDepth sessions are runnable. Worker
// requeues of in-flight sessions go through the worker loop and are never
// rejected; they own a runnable slot already. The caller has already
// marked the session running; a session is never on the queue twice.
func (srv *Server) enqueue(s *Session) error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return ErrNoServer
	}
	if srv.draining {
		return ErrDraining
	}
	if srv.runnable >= srv.cfg.QueueDepth {
		srv.met.shed.Inc()
		return ErrOverloaded
	}
	srv.runnable++
	srv.runq <- s
	return nil
}

// Create opens a session on the server's default machine configuration:
// takes a machine from the pool, loads prog, and prepares a debugger with
// the given options. The session starts idle; declare watchpoints and
// breakpoints, then Continue.
func (srv *Server) Create(prog *asm.Program, opts debug.Options) (*Session, error) {
	return srv.CreateWith(prog, opts, SessionConfig{})
}

// CreateWith is Create with per-session parameters: a machine
// configuration of the session's own.
func (srv *Server) CreateWith(prog *asm.Program, opts debug.Options, sc SessionConfig) (*Session, error) {
	if prog == nil {
		return nil, fmt.Errorf("serve: nil program")
	}
	zero := machine.Config{}
	if sc.Machine == zero {
		sc.Machine = srv.cfg.Machine
	}
	// Cheap early-outs; the authoritative checks repeat at insertion so
	// concurrent Creates cannot slip past the session cap together.
	srv.mu.Lock()
	if err := srv.admitLocked(); err != nil {
		srv.mu.Unlock()
		return nil, err
	}
	srv.mu.Unlock()

	m := srv.pools.Get(sc.Machine)
	m.Load(prog)
	s := newSession(srv, m, prog, opts, sc)

	srv.mu.Lock()
	if err := srv.admitLocked(); err != nil {
		srv.mu.Unlock()
		srv.pools.Put(m)
		return nil, err
	}
	srv.nextID++
	s.ID = srv.nextID
	srv.sessions[s.ID] = s
	srv.met.sessionsCreated.Inc()
	srv.mu.Unlock()
	return s, nil
}

// admitLocked reports whether the server can take another session.
func (srv *Server) admitLocked() error {
	if srv.closed {
		return ErrNoServer
	}
	if srv.draining {
		return ErrDraining
	}
	if len(srv.sessions) >= srv.cfg.MaxSessions {
		return fmt.Errorf("serve: session limit reached (%d)", srv.cfg.MaxSessions)
	}
	return nil
}

// CreateSource is Create over assembly source text.
func (srv *Server) CreateSource(src string, opts debug.Options) (*Session, error) {
	return srv.CreateSourceWith(src, opts, SessionConfig{})
}

// CreateSourceWith is CreateWith over assembly source text.
func (srv *Server) CreateSourceWith(src string, opts debug.Options, sc SessionConfig) (*Session, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return srv.CreateWith(prog, opts, sc)
}

// Attach returns the open session with the given id, for clients
// reconnecting to an existing session.
func (srv *Server) Attach(id uint64) (*Session, bool) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	s, ok := srv.sessions[id]
	return s, ok
}

// Sessions returns the open session IDs.
func (srv *Server) Sessions() []uint64 {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	ids := make([]uint64, 0, len(srv.sessions))
	for id := range srv.sessions {
		ids = append(ids, id)
	}
	return ids
}

// Stats returns a snapshot of server activity. The counters come from
// the same lock-free instruments the /metrics endpoint scrapes.
func (srv *Server) Stats() ServerStats {
	m := srv.met
	srv.mu.Lock()
	st := ServerStats{
		SessionsCreated: m.sessionsCreated.Load(),
		SessionsClosed:  m.sessionsClosed.Load(),
		QuantaRun:       m.quanta.Load(),
		Shed:            m.shed.Load(),
		SlowConsumers:   m.slow.Load(),
		EventsDropped:   m.evDropped.Load(),
		Faults:          m.faults.Load(),
		Recoveries:      m.recoveries.Load(),
		Runnable:        srv.runnable,
		QueueLen:        len(srv.runq),
	}
	srv.mu.Unlock()
	st.Pool = srv.pools.Stats()
	st.PoolConfigs = srv.pools.Configs()
	st.PoolByConfig = srv.poolIdleByPreset()
	return st
}

// noteSlowConsumer counts a dropped subscription.
func (srv *Server) noteSlowConsumer() { srv.met.slow.Inc() }

// noteEventsDropped counts pull-queue events discarded at EventBuffer.
func (srv *Server) noteEventsDropped(n uint64) { srv.met.evDropped.Add(n) }

// noteFault counts a panicked quantum.
func (srv *Server) noteFault() { srv.met.faults.Inc() }

// noteRecovery counts a session rebuilt from its checkpoint.
func (srv *Server) noteRecovery() { srv.met.recoveries.Inc() }

// Drain initiates a graceful shutdown: new sessions and resumes are
// rejected with ErrDraining, in-flight quanta finish, and running
// sessions park idle at their next quantum boundary instead of
// requeueing. Once quiescent — or when the timeout expires — every idle
// session that still owns a machine is checkpointed, preserving its
// progress for a restart. Drain reports whether the server went fully
// quiescent in time; call Close afterwards to release sessions and stop
// the workers.
func (srv *Server) Drain(timeout time.Duration) bool {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return true
	}
	srv.draining = true
	srv.mu.Unlock()
	srv.logger.Info("drain started", "timeout", timeout)

	deadline := time.Now().Add(timeout)
	// srv.cond has no timed wait; same one-shot broadcast pattern as
	// Session.WaitTimeout.
	timer := time.AfterFunc(timeout, func() {
		srv.mu.Lock()
		srv.cond.Broadcast()
		srv.mu.Unlock()
	})
	defer timer.Stop()

	srv.mu.Lock()
	for srv.runnable > 0 && !srv.closed && time.Now().Before(deadline) {
		srv.cond.Wait()
	}
	drained := srv.runnable == 0
	open := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		open = append(open, s)
	}
	srv.mu.Unlock()

	for _, s := range open {
		if remaining := time.Until(deadline); drained && remaining > 0 {
			// The worker that ran the session's last quantum parks it just
			// after releasing its runnable slot; settle that handoff so the
			// checkpoint below observes the parked state.
			s.WaitTimeout(remaining)
		}
		s.checkpointIfIdle()
	}
	srv.logger.Info("drain finished", "quiescent", drained, "sessions", len(open))
	return drained
}

// dropSession removes a finalized session from the table.
func (srv *Server) dropSession(id uint64) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if _, ok := srv.sessions[id]; ok {
		delete(srv.sessions, id)
		srv.met.sessionsClosed.Inc()
		srv.cond.Broadcast()
	}
}

// Close stops the server: open sessions are closed (running ones at
// their next quantum boundary), their machines return to the pool, and
// the workers drain and exit. Close blocks until shutdown completes.
func (srv *Server) Close() {
	srv.mu.Lock()
	if srv.closed {
		// Second closer: wait for the first to finish draining.
		for len(srv.sessions) > 0 {
			srv.cond.Wait()
		}
		srv.mu.Unlock()
		srv.wg.Wait()
		return
	}
	srv.closed = true
	open := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		open = append(open, s)
	}
	srv.mu.Unlock()

	for _, s := range open {
		s.Close()
	}
	// Running sessions finalize on their workers; wait for the table to
	// empty, then close the run queue, which is empty too, so the workers
	// exit.
	srv.mu.Lock()
	for len(srv.sessions) > 0 {
		srv.cond.Wait()
	}
	close(srv.runq)
	srv.mu.Unlock()
	srv.wg.Wait()
}
