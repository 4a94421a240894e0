package dise

import (
	"fmt"

	"repro/internal/debug"
)

// Session is the interactive debugging façade: a loaded machine plus a
// debugger, with run/continue semantics. The cmd/disedbg tool and the
// examples drive it; tests use it as the highest-level integration point.
type Session struct {
	M *Machine
	D *Debugger

	// OnUser is invoked at every user transition (the points where a real
	// debugger would hand control to the human). If StopOnUser is set the
	// session pauses there; Continue resumes.
	OnUser     func(UserEvent)
	StopOnUser bool

	installed bool
	events    []UserEvent
}

// NewSession loads prog into a fresh default machine and prepares a
// debugger with the given back end.
func NewSession(prog *Program, backend Backend) (*Session, error) {
	return NewSessionWith(prog, DefaultOptions(backend), DefaultMachineConfig())
}

// NewSessionWith is NewSession with explicit debugger options and machine
// configuration.
func NewSessionWith(prog *Program, opts Options, mcfg MachineConfig) (*Session, error) {
	if prog == nil {
		return nil, fmt.Errorf("dise: nil program")
	}
	m := NewMachineWith(mcfg)
	m.Load(prog)
	s := &Session{M: m}
	s.D = debug.New(m, opts)
	s.D.OnUser = func(ev UserEvent) {
		s.events = append(s.events, ev)
		if s.OnUser != nil {
			s.OnUser(ev)
		}
		if s.StopOnUser {
			s.M.Core.RequestStop()
		}
	}
	return s, nil
}

// WatchScalar watches an 8-, 4-, 2-, or 1-byte variable.
func (s *Session) WatchScalar(name string, addr uint64, size int) error {
	return s.D.Watch(&Watchpoint{Name: name, Kind: WatchScalar, Addr: addr, Size: size})
}

// WatchIndirect watches *p, where addrOfP holds the pointer.
func (s *Session) WatchIndirect(name string, addrOfP uint64, size int) error {
	return s.D.Watch(&Watchpoint{Name: name, Kind: WatchIndirect, Addr: addrOfP, Size: size})
}

// WatchRange watches a memory region (array or structure).
func (s *Session) WatchRange(name string, addr, length uint64) error {
	return s.D.Watch(&Watchpoint{Name: name, Kind: WatchRange, Addr: addr, Length: length})
}

// WatchCond registers a conditional watchpoint.
func (s *Session) WatchCond(w *Watchpoint, cond *Condition) error {
	w.Cond = cond
	return s.D.Watch(w)
}

// Break sets a breakpoint at pc.
func (s *Session) Break(pc uint64) error {
	return s.D.Break(&Breakpoint{PC: pc})
}

// BreakIf sets a conditional breakpoint.
func (s *Session) BreakIf(pc uint64, cond *BreakCond) error {
	return s.D.Break(&Breakpoint{PC: pc, Cond: cond})
}

// Install installs the debugger, which Run does on its first call. A
// refused Install may leave the machine part-instrumented: discard the
// session then.
func (s *Session) Install() error {
	if err := s.D.Install(); err != nil {
		return err
	}
	s.installed = true
	return nil
}

// Run installs the debugger (first call) and runs until halt, a stop at a
// user transition (when StopOnUser is set), or the instruction budget
// (0 = unlimited).
func (s *Session) Run(maxInsts uint64) (Stats, error) {
	if !s.installed {
		if err := s.Install(); err != nil {
			return Stats{}, err
		}
	}
	return s.M.Run(maxInsts)
}

// Continue resumes after a stop.
func (s *Session) Continue(maxInsts uint64) (Stats, error) {
	if !s.installed {
		return Stats{}, fmt.Errorf("dise: Continue before Run")
	}
	return s.M.Run(maxInsts)
}

// Events returns the user transitions seen so far.
func (s *Session) Events() []UserEvent { return s.events }

// Halted reports whether the program has finished.
func (s *Session) Halted() bool { return s.M.Core.Halted() }

// Transitions returns the debugger's transition statistics.
func (s *Session) Transitions() TransitionStats { return s.D.Stats() }
