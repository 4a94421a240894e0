package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"iter"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/debug"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Session errors.
var (
	ErrRunning  = errors.New("serve: session is running")
	ErrNotIdle  = errors.New("serve: session is not resumable")
	ErrHalted   = errors.New("serve: program has halted")
	ErrClosed   = errors.New("serve: session is closed")
	ErrNoServer = errors.New("serve: server is closed")
	ErrDraining = errors.New("serve: server is draining")
	ErrErrored  = errors.New("serve: session errored")
	ErrNoCheck  = errors.New("serve: session has no checkpoint")
)

// State is a session's lifecycle position.
type State int

// Session states. A session is Idle between Create and its first
// Continue and again whenever execution pauses (user transition or budget
// exhaustion); machine-touching operations are legal only while Idle.
const (
	StateIdle State = iota
	StateRunning
	StateHalted
	StateClosed
	// StateErrored is terminal: the session faulted beyond recovery
	// (Config.MaxFaults consecutive faults, a fault with no checkpoint to
	// rebuild from, or a failed recovery). The panic value is surfaced by
	// Err and on wait; the machine has been discarded. Close releases the
	// session.
	StateErrored
)

var stateNames = [...]string{"idle", "running", "halted", "closed", "errored"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// EventKind classifies session events.
type EventKind string

// Event kinds.
const (
	EventWatch EventKind = "watch" // a watchpoint fired (user transition)
	EventBreak EventKind = "break" // a breakpoint fired (user transition)
	EventTrap  EventKind = "trap"  // another user transition (e.g. raw trap)
	EventHalt  EventKind = "halt"  // the program executed halt
	EventStop  EventKind = "stop"  // the instruction budget was exhausted
	EventShed  EventKind = "shed"  // parked by a drain; Continue resumes
	EventError EventKind = "error" // the run failed (e.g. uop safety cap)
	EventFault EventKind = "fault" // a quantum panicked; session recovered from its checkpoint
)

// Event is one entry in a session's event queue, delivered in execution
// order and drained by Events (or the protocol's wait/events ops).
//
// Delivery around faults is at-least-once: events appended after the
// checkpoint a recovery rewinds to have already been delivered, and the
// replayed execution appends them again. Subscribers that must
// deduplicate can use Gen — it increments on every recovery, and a fault
// event carries the generation of the rebuilt incarnation.
type Event struct {
	Kind  EventKind `json:"kind"`
	PC    uint64    `json:"pc,omitempty"`
	Watch string    `json:"watch,omitempty"` // watchpoint name (EventWatch)
	Value uint64    `json:"value,omitempty"` // watched value (EventWatch)
	Err   string    `json:"err,omitempty"`   // failure detail (EventError, EventFault)
	Gen   uint64    `json:"gen,omitempty"`   // recovery generation (EventFault, EventError)
}

// Session is one debug session: a pooled machine, a loaded program, a
// debugger, an event queue, and scheduling state. All methods are safe
// for concurrent use; execution itself happens on the server's worker
// goroutines in bounded quanta, never on the caller. A StateRunning
// session is always either on the run queue or on the worker running its
// quantum, and that worker alone moves it out of StateRunning.
type Session struct {
	// ID is the server-unique session identifier.
	ID uint64

	srv *Server

	// sc is fixed at creation, and so is preset, the name of the preset
	// sc.Machine equals ("" for none).
	sc     SessionConfig
	preset string

	mu   sync.Mutex
	cond *sync.Cond // broadcast whenever state leaves StateRunning

	m         *machine.Machine
	d         *debug.Debugger
	prog      *asm.Program
	state     State
	installed bool
	target    uint64 // absolute AppInsts bound for this run; 0 = unbounded
	hitUser   bool   // a user transition paused the current quantum
	closeReq  bool   // finalize at the next quantum boundary

	events []Event
	subs   []*Subscription
	stats  pipeline.Stats
	trans  debug.TransitionStats
	err    error

	// Crash-safety state: the last checkpoint (machine snapshot plus
	// debugger companion), how many quanta ran since it was taken, the
	// consecutive-fault streak (reset by every completed quantum), the
	// recovery generation (how many times this session was rebuilt), and
	// the per-session quantum ordinal handed to Config.FaultInject —
	// strictly increasing across recoveries, so an injector keyed on it
	// fires once per value.
	chk      *checkpoint
	sinceChk int
	faults   int
	gen      uint64
	nQuanta  uint64

	// trace is the session's scheduling timeline: a bounded ring of the
	// last Config.TraceDepth scheduling events, appended under s.mu (no
	// shared lock) with zero allocations, dumped by Trace and the trace
	// wire op. nil when tracing is disabled.
	trace *obs.TraceRing
}

// checkpoint pairs a machine snapshot with the debugger state that must
// accompany it for classification to continue bit-identically.
type checkpoint struct {
	mach *machine.State
	dbg  *debug.Checkpoint
}

// newSession wires a session around a loaded machine; the caller assigns
// ID when it publishes the session into the server's table.
func newSession(srv *Server, m *machine.Machine, prog *asm.Program, opts debug.Options, sc SessionConfig) *Session {
	s := &Session{srv: srv, m: m, prog: prog, sc: sc, preset: machine.PresetName(sc.Machine)}
	s.trace = obs.NewTraceRing(srv.cfg.TraceDepth)
	s.cond = sync.NewCond(&s.mu)
	s.d = debug.New(m, opts)
	s.d.OnUser = func(ev debug.UserEvent) {
		// Runs on the worker goroutine, inside m.Run, with s.mu free. Read
		// the machine through s.m rather than the captured m: fault
		// recovery replaces the session's machine, and stopping the
		// discarded one would do nothing. Only the owning worker swaps
		// s.m, so the read is current for the run this event fired in.
		s.mu.Lock()
		s.appendEventLocked(fromUserEvent(ev))
		s.hitUser = true
		cur := s.m
		s.mu.Unlock()
		cur.Core.RequestStop()
	}
	return s
}

// MachineConfig returns the session's machine configuration and the name
// of the preset it equals, or "" when it equals none.
func (s *Session) MachineConfig() (machine.Config, string) { return s.sc.Machine, s.preset }

func fromUserEvent(ev debug.UserEvent) Event {
	switch {
	case ev.Watchpoint != nil:
		return Event{Kind: EventWatch, PC: ev.PC, Watch: ev.Watchpoint.Name, Value: ev.Value}
	case ev.Breakpoint != nil:
		return Event{Kind: EventBreak, PC: ev.PC}
	default:
		return Event{Kind: EventTrap, PC: ev.PC}
	}
}

// Program returns the loaded program (for symbol resolution).
func (s *Session) Program() *asm.Program { return s.prog }

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Err returns the run error, if the session stopped on one.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Watch registers a watchpoint. Like an interactive debugger, watchpoints
// are declared while the session is idle and installed at the first
// Continue; the underlying back end rejects changes after installation.
func (s *Session) Watch(w *debug.Watchpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.idleLocked(); err != nil {
		return err
	}
	return s.d.Watch(w)
}

// Break registers a breakpoint (see Watch for lifecycle restrictions).
func (s *Session) Break(b *debug.Breakpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.idleLocked(); err != nil {
		return err
	}
	return s.d.Break(b)
}

// idleLocked verifies the machine may be touched by the caller.
func (s *Session) idleLocked() error {
	switch s.state {
	case StateRunning:
		return ErrRunning
	case StateHalted:
		return ErrHalted
	case StateClosed:
		return ErrClosed
	case StateErrored:
		return ErrErrored
	}
	return nil
}

// Continue resumes (or starts) execution for at most budget application
// instructions (0 = until halt or the next user transition). It returns
// immediately; the session runs on the server's workers. Wait blocks
// until the run pauses.
func (s *Session) Continue(budget uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.idleLocked(); err != nil {
		return err
	}
	if !s.installed {
		if err := s.d.Install(); err != nil {
			return err
		}
		s.installed = true
	}
	if s.srv.cfg.CheckpointEvery > 0 && s.chk == nil {
		// First resume with checkpointing on: capture the post-install
		// state so even a first-quantum fault has somewhere to rewind to.
		s.checkpointLocked()
	}
	if budget > 0 {
		s.target = s.m.Core.Stats().AppInsts + budget
	} else {
		s.target = 0
	}
	s.state = StateRunning
	if err := s.srv.enqueue(s); err != nil {
		s.state = StateIdle
		return err
	}
	s.trace.Append(obs.TraceEvent{Kind: TraceEnqueue, PC: s.m.Core.PC()})
	return nil
}

// Step runs exactly n application instructions (n == 0 steps one), still
// honoring watchpoints and breakpoints within the window.
func (s *Session) Step(n uint64) error {
	if n == 0 {
		n = 1
	}
	return s.Continue(n)
}

// Wait blocks until the session is not running and returns its state.
func (s *Session) Wait() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.state == StateRunning {
		s.cond.Wait()
	}
	return s.state
}

// WaitTimeout is Wait bounded by d; ok reports whether the session
// stopped in time.
func (s *Session) WaitTimeout(d time.Duration) (State, bool) {
	deadline := time.Now().Add(d)
	// sync.Cond has no timed wait; a one-shot broadcast at the deadline,
	// taken under s.mu, cannot be lost: the waiter holds the mutex from
	// its deadline check until cond.Wait parks it, so the timer's
	// Lock/Broadcast either wakes the parked waiter or serializes before
	// a check that then sees the deadline expired.
	timer := time.AfterFunc(d, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.state == StateRunning && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return s.state, s.state != StateRunning
}

// Trace returns the session's scheduling timeline — the most recent
// Config.TraceDepth scheduling events, oldest first: enqueue, quantum
// start/end (with wall-clock duration and instructions retired), park,
// checkpoint, fault, recovery. A gap in the Seq numbers means the ring
// wrapped. Nil when tracing is disabled.
func (s *Session) Trace() []obs.TraceEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trace.Snapshot()
}

// Events drains and returns the queued events.
func (s *Session) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.events
	s.events = nil
	return out
}

// Subscription streams a session's events as they are appended, in
// execution order, independent of the pull-style Events queue (a
// subscription is a tee, not a drain). Each subscription is a queue
// bounded by its depth, kept under the session's lock. A subscription
// that falls its depth behind is dropped as a slow consumer, reported by
// Dropped and the optional OnDrop callback: the push path runs on the
// scheduler workers and must never wait for a client.
//
// A subscription ends when it is canceled or dropped, or when its
// session closes or errors; it still delivers the events queued by then.
type Subscription struct {
	s    *Session
	opts SubscribeOptions // Depth resolved and clamped
	wake chan struct{}    // capacity 1: an event was queued or the subscription ended

	// guarded by s.mu
	queue   []Event
	done    bool
	dropped bool
}

// SubscribeOptions parameterizes Subscribe.
type SubscribeOptions struct {
	// Depth bounds the subscription's queue (<= 0 selects the server's
	// Config.PushBuffer). It arrives from the wire protocol unchecked, so
	// it is clamped to Config.EventBuffer, the pull queue's bound.
	Depth int
	// OnDrop, if non-nil, is invoked from a fresh goroutine if the
	// subscriber is dropped for falling behind.
	OnDrop func()
}

// Subscribe registers a push subscriber. Subscribing to a closed or
// errored session returns an already-ended subscription.
func (s *Session) Subscribe(opts SubscribeOptions) *Subscription {
	return s.subscribe(opts, make(chan struct{}, 1))
}

// subscribe is Subscribe with the reader's wake channel supplied: a
// protocol connection shares one among all its subscriptions, so its
// writer waits on a single channel.
func (s *Session) subscribe(opts SubscribeOptions, wake chan struct{}) *Subscription {
	if opts.Depth <= 0 {
		opts.Depth = s.srv.cfg.PushBuffer
	}
	opts.Depth = min(opts.Depth, s.srv.cfg.EventBuffer)
	sub := &Subscription{s: s, opts: opts, wake: wake}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateClosed || s.state == StateErrored {
		sub.done = true
		return sub
	}
	s.subs = append(s.subs, sub)
	return sub
}

// Events returns the subscription's events, appended after Subscribe,
// in execution order. The sequence blocks while the queue is empty and
// ends once the subscription has ended and its queue is read; a loop
// that breaks early leaves the later events queued.
func (sub *Subscription) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for {
			ev, ok, live := sub.take()
			switch {
			case ok:
				if !yield(ev) {
					return
				}
			case !live:
				sub.signal() // pass the end on to any other reader
				return
			default:
				<-sub.wake
			}
		}
	}
}

// take pops the oldest queued event without blocking: ok reports whether
// there was one, live whether more may follow.
func (sub *Subscription) take() (ev Event, ok, live bool) {
	sub.s.mu.Lock()
	defer sub.s.mu.Unlock()
	if ok = len(sub.queue) > 0; ok {
		ev = sub.queue[0]
		sub.queue = sub.queue[1:]
	}
	return ev, ok, !sub.done
}

// Dropped reports whether the subscription was severed for falling
// behind.
func (sub *Subscription) Dropped() bool {
	sub.s.mu.Lock()
	defer sub.s.mu.Unlock()
	return sub.dropped
}

// Cancel ends the subscription.
func (sub *Subscription) Cancel() {
	s := sub.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub.done {
		return
	}
	sub.endLocked()
	s.removeSubLocked(sub)
}

// endLocked ends the subscription and wakes its reader. Caller holds
// s.mu.
func (sub *Subscription) endLocked() {
	sub.done = true
	sub.signal()
}

// signal wakes the subscription's reader without blocking.
func (sub *Subscription) signal() {
	select {
	case sub.wake <- struct{}{}:
	default:
	}
}

// removeSubLocked unlinks sub from the subscriber list. Caller holds
// s.mu.
func (s *Session) removeSubLocked(sub *Subscription) {
	for i, x := range s.subs {
		if x == sub {
			s.subs[i] = s.subs[len(s.subs)-1]
			s.subs[len(s.subs)-1] = nil
			s.subs = s.subs[:len(s.subs)-1]
			return
		}
	}
}

// appendEventLocked queues ev and tees it to every subscriber, dropping
// subscribers whose queue is full. Caller holds s.mu, so subscribers
// observe events in execution order.
func (s *Session) appendEventLocked(ev Event) {
	if len(s.events) >= s.srv.cfg.EventBuffer {
		// The pull queue is full — a push-only or non-polling client.
		// Discard the oldest half in one move (amortized O(1) per append)
		// so the recent events, ending in the eventual halt, survive.
		half := (len(s.events) + 1) / 2
		n := copy(s.events, s.events[half:])
		s.events = s.events[:n]
		s.srv.noteEventsDropped(uint64(half))
	}
	s.events = append(s.events, ev)
	for i := 0; i < len(s.subs); {
		sub := s.subs[i]
		if len(sub.queue) >= sub.opts.Depth {
			sub.dropped = true
			sub.endLocked()
			s.removeSubLocked(sub) // swaps the tail into position i
			s.srv.noteSlowConsumer()
			if sub.opts.OnDrop != nil {
				go sub.opts.OnDrop()
			}
			continue
		}
		sub.queue = append(sub.queue, ev)
		sub.signal()
		i++
	}
}

// Stats returns the latest execution statistics snapshot. While the
// session runs, the snapshot trails live state by at most one quantum.
func (s *Session) Stats() (pipeline.Stats, debug.TransitionStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats, s.trans
}

// ReadQuad reads 8 bytes of simulated memory; the session must be idle.
func (s *Session) ReadQuad(addr uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateClosed:
		return 0, ErrClosed
	case StateRunning:
		return 0, ErrRunning
	case StateErrored:
		return 0, ErrErrored
	}
	return s.m.ReadQuad(addr), nil
}

// Close releases the session. A running session finishes its current
// quantum first; its machine then returns to the pool. Close never
// blocks; Wait observes the transition to StateClosed.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateClosed:
	case StateRunning:
		s.closeReq = true // the worker finalizes at the quantum boundary
	default:
		s.finalizeLocked()
	}
}

// finalizeLocked returns the machine to the pool and marks the session
// closed. Caller holds s.mu.
func (s *Session) finalizeLocked() {
	if s.state == StateClosed {
		return
	}
	s.state = StateClosed
	m := s.m
	s.m, s.d = nil, nil
	for _, sub := range s.subs {
		sub.endLocked()
	}
	s.subs = nil
	s.srv.dropSession(s.ID)
	s.srv.pools.Put(m)
	s.cond.Broadcast()
}

// pauseShed parks a session that a drain took off the run queue: the
// session pauses as if its budget ran out, with an EventShed and a trace
// park noted "drain" marking why, and a plain Continue resumes it later.
// Runs on the worker that ran the session's last quantum, which owns its
// machine.
func (s *Session) pauseShed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateRunning {
		s.state = StateIdle
		s.appendEventLocked(Event{Kind: EventShed, PC: s.m.Core.PC()})
		s.trace.Append(obs.TraceEvent{Kind: TracePark, PC: s.m.Core.PC(), Note: "drain"})
	}
	if s.closeReq {
		s.finalizeLocked()
		return
	}
	s.cond.Broadcast()
}

// runQuantumGuarded is runQuantum under panic isolation: a panic anywhere
// in the quantum — the simulator, a debugger hook, or the fault-injection
// harness — is confined to this session. The broken machine is discarded
// and the session is rebuilt from its last checkpoint onto a fresh pooled
// machine; without a checkpoint (or after MaxFaults consecutive faults)
// the session transitions to the terminal errored state instead. The
// worker process never dies.
func (s *Session) runQuantumGuarded(quantum uint64) (again bool) {
	defer func() {
		if r := recover(); r != nil {
			again = s.recoverFault(r)
		}
	}()
	return s.runQuantum(quantum)
}

// recoverFault handles a panicked quantum; it reports whether the session
// should be requeued (true only when it was rebuilt and keeps running).
func (s *Session) recoverFault(r any) (again bool) {
	faultErr := fmt.Errorf("serve: session fault: %v", r)
	s.srv.noteFault()
	// Registered before the mu-unlock defer so it runs after it: if
	// recovery itself panics (a corrupted checkpoint, a pool failure), the
	// mutex is already released and the session can still be errored
	// loudly instead of killing the worker.
	defer func() {
		if r2 := recover(); r2 != nil {
			s.mu.Lock()
			s.errorLocked(fmt.Errorf("serve: recovery failed: %v (recovering from: %v)", r2, faultErr))
			s.mu.Unlock()
			again = false
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults++
	s.trace.Append(obs.TraceEvent{Kind: TraceFault, Quantum: s.nQuanta, Note: faultErr.Error()})
	s.srv.logger.Error("session fault", "session", s.ID, "quantum", s.nQuanta,
		"streak", s.faults, "err", faultErr)
	if s.closeReq {
		// The session is being torn down anyway: drop the broken machine
		// (never back to the pool) and finalize.
		s.srv.pools.discard()
		s.m, s.d = nil, nil
		s.finalizeLocked()
		return false
	}
	if s.chk == nil || s.faults >= s.srv.cfg.MaxFaults {
		s.errorLocked(faultErr)
		return false
	}
	// Rebuild: discard the broken machine, restore the checkpoint onto a
	// fresh pooled one, and carry the debugger across.
	s.srv.pools.discard()
	nm := s.srv.pools.Get(s.sc.Machine)
	nm.Restore(s.chk.mach)
	s.d.RestoreCheckpoint(s.chk.dbg)
	s.d.Rebind(nm)
	s.m = nm
	s.gen++
	s.sinceChk = 0
	s.stats = nm.Core.Stats()
	s.trans = s.d.Stats()
	s.appendEventLocked(Event{Kind: EventFault, PC: nm.Core.PC(), Err: faultErr.Error(), Gen: s.gen})
	s.trace.Append(obs.TraceEvent{Kind: TraceRecovery, Quantum: s.gen, PC: nm.Core.PC()})
	s.srv.noteRecovery()
	s.srv.logger.Info("session recovered", "session", s.ID, "generation", s.gen, "pc", nm.Core.PC())
	return true // still StateRunning: requeue and replay from the checkpoint
}

// errorLocked moves the session to the terminal errored state: the
// machine (if any) is discarded, the panic value is retained for Err and
// wait, subscribers get a final EventError and are ended. The session
// stays in the server table so clients can attach and read the failure;
// Close releases it. Caller holds s.mu.
func (s *Session) errorLocked(err error) {
	if s.state == StateClosed || s.state == StateErrored {
		return
	}
	if s.m != nil {
		s.srv.pools.discard()
	}
	s.m, s.d = nil, nil
	s.err = err
	s.state = StateErrored
	s.appendEventLocked(Event{Kind: EventError, Err: err.Error(), Gen: s.gen})
	s.srv.logger.Error("session errored", "session", s.ID, "generation", s.gen, "err", err)
	for _, sub := range s.subs {
		sub.endLocked()
	}
	s.subs = nil
	s.cond.Broadcast()
}

// checkpointLocked captures the session's current machine and debugger
// state as the rewind point. Caller holds s.mu; the session must own a
// machine and must not be running on a worker.
func (s *Session) checkpointLocked() {
	t0 := time.Now()
	s.chk = &checkpoint{mach: s.m.Snapshot(), dbg: s.d.Checkpoint()}
	s.sinceChk = 0
	dur := time.Since(t0)
	s.srv.met.checkpointNs.Observe(uint64(dur))
	s.trace.Append(obs.TraceEvent{Kind: TraceCheckpoint, PC: s.m.Core.PC(), DurNs: int64(dur)})
}

// checkpointIfIdle checkpoints the session if it is idle and still owns a
// machine — the drain path, preserving progress before shutdown.
func (s *Session) checkpointIfIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateIdle || s.m == nil {
		return
	}
	s.checkpointLocked()
}

// SnapshotNow checkpoints the idle session on demand and returns the
// deterministic encoding's size and SHA-256 content hash (the wire
// protocol's snapshot op). The checkpoint becomes the session's rewind
// point, so snapshot-then-restore is an explicit save/load pair even with
// periodic checkpointing off.
func (s *Session) SnapshotNow() (size int, hash string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.idleLocked(); err != nil {
		return 0, "", err
	}
	s.checkpointLocked()
	enc := s.chk.mach.Encode()
	s.srv.met.snapshotB.Observe(uint64(len(enc)))
	sum := sha256.Sum256(enc)
	return len(enc), hex.EncodeToString(sum[:]), nil
}

// Rewind restores the session to its last checkpoint (the wire
// protocol's restore op — the first slice of time-travel). It is legal
// while idle or halted: rewinding a halted session un-halts it back to
// the checkpointed execution point. Running, closed, and errored
// sessions are rejected.
func (s *Session) Rewind() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateRunning:
		return ErrRunning
	case StateClosed:
		return ErrClosed
	case StateErrored:
		return ErrErrored
	}
	if s.chk == nil {
		return ErrNoCheck
	}
	s.m.Restore(s.chk.mach)
	s.d.RestoreCheckpoint(s.chk.dbg)
	s.state = StateIdle
	s.err = nil
	s.faults = 0
	s.hitUser = false
	s.stats = s.m.Core.Stats()
	s.trans = s.d.Stats()
	s.cond.Broadcast()
	return nil
}

// runQuantum executes one scheduling slice on the calling worker and
// reports whether the session should be requeued. It is only ever called
// by the worker that dequeued the session, so the machine is touched by
// exactly one goroutine at a time.
func (s *Session) runQuantum(quantum uint64) bool {
	s.mu.Lock()
	if s.state != StateRunning {
		// A close raced in between enqueue and execution.
		if s.closeReq {
			s.finalizeLocked()
		}
		s.mu.Unlock()
		return false
	}
	m := s.m
	startStats := m.Core.Stats()
	startInsts := startStats.AppInsts
	target := startInsts + quantum
	if s.target > 0 && target > s.target {
		target = s.target
	}
	s.hitUser = false
	s.nQuanta++
	nq := s.nQuanta
	s.trace.Append(obs.TraceEvent{Kind: TraceQStart, Quantum: nq, PC: m.Core.PC()})
	s.mu.Unlock()
	t0 := time.Now()

	if inject := s.srv.cfg.FaultInject; inject != nil {
		if err := inject(s.ID, nq, m); err != nil {
			// An injected fault is indistinguishable from a real one: it
			// unwinds into runQuantumGuarded's recovery path.
			panic(err)
		}
	}

	_, err := m.Run(target)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = 0 // the quantum completed: the consecutive-fault streak ends
	s.stats = m.Core.Stats()
	s.trans = s.d.Stats()
	s.trace.Append(obs.TraceEvent{
		Kind:     TraceQEnd,
		Quantum:  nq,
		PC:       m.Core.PC(),
		DurNs:    int64(time.Since(t0)),
		Insts:    s.stats.AppInsts - startInsts,
		UopReuse: quantumUopReuse(startStats, s.stats),
	})
	if ce := s.srv.cfg.CheckpointEvery; ce > 0 && err == nil && !m.Core.Halted() && !s.closeReq {
		s.sinceChk++
		if s.sinceChk >= ce {
			s.checkpointLocked()
		}
	}
	switch {
	case err != nil:
		s.err = err
		s.appendEventLocked(Event{Kind: EventError, PC: m.Core.PC(), Err: err.Error()})
		s.state = StateHalted
	case m.Core.Halted():
		s.state = StateHalted
		s.appendEventLocked(Event{Kind: EventHalt, PC: s.stats.HaltPC})
	case s.hitUser:
		s.state = StateIdle // paused at a user transition; events queued
	case s.target > 0 && s.stats.AppInsts >= s.target:
		s.state = StateIdle
		s.appendEventLocked(Event{Kind: EventStop, PC: m.Core.PC()})
	default:
		if s.closeReq {
			s.finalizeLocked()
			return false
		}
		return true // quantum expired mid-run: requeue behind the others
	}
	if s.closeReq {
		s.finalizeLocked()
		return false
	}
	s.cond.Broadcast()
	return false
}

// quantumUopReuse computes the fraction of this quantum's dispatches that
// were served from already-resolved micro-ops, from the cumulative
// before/after pipeline statistics.
func quantumUopReuse(before, after pipeline.Stats) float64 {
	hits := after.UopHits - before.UopHits
	resolves := after.UopResolves - before.UopResolves
	if hits+resolves == 0 {
		return 0
	}
	return float64(hits) / float64(hits+resolves)
}
