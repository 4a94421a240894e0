// Command disedbg is an interactive debugger driving the simulated
// machine, in the spirit of the gdb sessions the paper measures. The
// back end that implements watchpoints and breakpoints is selectable, so
// the same session can be run with DISE productions, page protection,
// hardware registers, or single-stepping and the cost difference observed
// directly in simulated cycles.
//
// Usage:
//
//	disedbg prog.s
//
// Commands:
//
//	backend dise|vm|hw|step|rewrite   select the implementation (before run)
//	machine PRESET                    select the simulated machine (before run):
//	                                  default|small-cache|big-l2|no-bpred|narrow-core
//	watch SYM [SIZE]                  watch a scalar (default 8 bytes)
//	watch *SYM [SIZE]                 watch through a pointer
//	watch SYM..LEN                    watch a LEN-byte region
//	watch SYM if == N                 conditional watchpoint (==, !=, <, >)
//	break SYM|ADDR                    set a breakpoint
//	break SYM if VSYM == N            conditional breakpoint on scalar VSYM
//	run / continue                    start / resume execution
//	x SYM|ADDR                        examine one quad of memory
//	info                              statistics and transition accounting
//	list                              disassemble the program
//	quit
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	dise "repro"
	"repro/internal/asm"
)

type cli struct {
	out     io.Writer
	prog    *asm.Program
	backend dise.Backend
	machine string        // machine preset name
	session *dise.Session // set once a run's Install succeeds
	watches []*dise.Watchpoint
	breaks  []*dise.Breakpoint
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: disedbg prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "disedbg:", err)
		os.Exit(1)
	}
	if err := repl(string(src), os.Args[1], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "disedbg:", err)
		os.Exit(1)
	}
}

// repl assembles src and runs the command loop until quit or EOF. main
// binds it to the terminal; the integration test drives it with scripted
// input and asserts on the output.
func repl(src, name string, in io.Reader, out io.Writer) error {
	prog, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	c := &cli{out: out, prog: prog, backend: dise.BackendDise, machine: "default"}
	fmt.Fprintf(out, "loaded %s: %d instructions, entry %#x (backend: dise)\n",
		name, len(prog.Text), prog.Entry)
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "(ddb) ")
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "q" {
			return nil
		}
		if err := c.command(line); err != nil {
			fmt.Fprintln(c.out, "error:", err)
		}
	}
}

func (c *cli) command(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "backend":
		if len(fields) != 2 {
			return fmt.Errorf("backend dise|vm|hw|step|rewrite")
		}
		if c.session != nil {
			return fmt.Errorf("cannot change backend after run")
		}
		b, ok := dise.ParseBackend(fields[1])
		if !ok {
			return fmt.Errorf("unknown backend %q", fields[1])
		}
		c.backend = b
		fmt.Fprintln(c.out, "backend:", b)
		return nil
	case "machine":
		if len(fields) != 2 {
			return fmt.Errorf("machine %s", strings.Join(dise.MachinePresets(), "|"))
		}
		if c.session != nil {
			return fmt.Errorf("cannot change machine after run")
		}
		if _, ok := dise.MachinePresetConfig(fields[1]); !ok {
			return fmt.Errorf("unknown machine preset %q (have %s)",
				fields[1], strings.Join(dise.MachinePresets(), ", "))
		}
		c.machine = fields[1]
		fmt.Fprintln(c.out, "machine:", c.machine)
		return nil
	case "watch":
		return c.watch(fields[1:])
	case "break", "b":
		return c.breakCmd(fields[1:])
	case "run", "r":
		if c.session != nil {
			return fmt.Errorf("already running; use continue")
		}
		return c.run()
	case "continue", "c":
		if c.session == nil {
			return fmt.Errorf("not running; use run")
		}
		return c.resume()
	case "x":
		if len(fields) != 2 {
			return fmt.Errorf("x SYM|ADDR")
		}
		a, err := c.addr(fields[1])
		if err != nil {
			return err
		}
		if c.session == nil {
			return fmt.Errorf("not running")
		}
		fmt.Fprintf(c.out, "%#x: %#x\n", a, c.session.M.ReadQuad(a))
		return nil
	case "info":
		return c.info()
	case "list":
		fmt.Fprint(c.out, c.prog.Disassemble())
		return nil
	}
	return fmt.Errorf("unknown command %q", fields[0])
}

func (c *cli) addr(s string) (uint64, error) {
	if a, err := c.prog.Symbol(s); err == nil {
		return a, nil
	}
	if v, err := strconv.ParseUint(s, 0, 64); err == nil {
		return v, nil
	}
	return 0, fmt.Errorf("no symbol or address %q", s)
}

func parseCond(fields []string) (*dise.Condition, error) {
	// "if == 5" and friends.
	if len(fields) != 3 || fields[0] != "if" {
		return nil, fmt.Errorf(`condition syntax: if ==|!=|<|> N`)
	}
	v, err := strconv.ParseUint(fields[2], 0, 64)
	if err != nil {
		return nil, fmt.Errorf("bad constant %q", fields[2])
	}
	ops := map[string]func() *dise.Condition{
		"==": func() *dise.Condition { return &dise.Condition{Op: dise.CondEq, Value: v} },
		"!=": func() *dise.Condition { return &dise.Condition{Op: dise.CondNe, Value: v} },
		"<":  func() *dise.Condition { return &dise.Condition{Op: dise.CondLt, Value: v} },
		">":  func() *dise.Condition { return &dise.Condition{Op: dise.CondGt, Value: v} },
	}
	f, ok := ops[fields[1]]
	if !ok {
		return nil, fmt.Errorf("bad operator %q", fields[1])
	}
	return f(), nil
}

func (c *cli) watch(args []string) error {
	if c.session != nil {
		return fmt.Errorf("set watchpoints before run")
	}
	if len(args) == 0 {
		return fmt.Errorf("watch SYM | *SYM | SYM..LEN [if == N]")
	}
	spec := args[0]
	var cond *dise.Condition
	rest := args[1:]
	if i := indexOf(rest, "if"); i >= 0 {
		var err error
		cond, err = parseCond(rest[i:])
		if err != nil {
			return err
		}
		rest = rest[:i]
	}
	size := 8
	if len(rest) == 1 {
		n, err := strconv.Atoi(rest[0])
		if err != nil {
			return fmt.Errorf("bad size %q", rest[0])
		}
		size = n
	}
	w := &dise.Watchpoint{Name: spec, Size: size, Cond: cond}
	switch {
	case strings.HasPrefix(spec, "*"):
		a, err := c.addr(spec[1:])
		if err != nil {
			return err
		}
		w.Kind = dise.WatchIndirect
		w.Addr = a
	case strings.Contains(spec, ".."):
		parts := strings.SplitN(spec, "..", 2)
		a, err := c.addr(parts[0])
		if err != nil {
			return err
		}
		n, err := strconv.ParseUint(parts[1], 0, 64)
		if err != nil {
			return fmt.Errorf("bad length %q", parts[1])
		}
		w.Kind = dise.WatchRange
		w.Addr = a
		w.Length = n
	default:
		a, err := c.addr(spec)
		if err != nil {
			return err
		}
		w.Kind = dise.WatchScalar
		w.Addr = a
	}
	c.watches = append(c.watches, w)
	fmt.Fprintf(c.out, "watchpoint %d: %s at %#x\n", len(c.watches), spec, w.Addr)
	return nil
}

func (c *cli) breakCmd(args []string) error {
	if c.session != nil {
		return fmt.Errorf("set breakpoints before run")
	}
	if len(args) == 0 {
		return fmt.Errorf("break SYM|ADDR [if VSYM ==|!=|<|> N]")
	}
	a, err := c.addr(args[0])
	if err != nil {
		return err
	}
	bp := &dise.Breakpoint{PC: a}
	if len(args) > 1 {
		if len(args) != 5 || args[1] != "if" {
			return fmt.Errorf("break SYM if VSYM ==|!=|<|> N")
		}
		va, err := c.addr(args[2])
		if err != nil {
			return err
		}
		cond, err := parseCond([]string{"if", args[3], args[4]})
		if err != nil {
			return err
		}
		bp.Cond = &dise.BreakCond{Addr: va, Op: cond.Op, Value: cond.Value}
	}
	c.breaks = append(c.breaks, bp)
	fmt.Fprintf(c.out, "breakpoint %d at %#x\n", len(c.breaks), a)
	return nil
}

func (c *cli) run() error {
	mcfg, ok := dise.MachinePresetConfig(c.machine)
	if !ok {
		return fmt.Errorf("unknown machine preset %q", c.machine)
	}
	s, err := dise.NewSessionWith(c.prog, dise.DefaultOptions(c.backend), mcfg)
	if err != nil {
		return err
	}
	s.StopOnUser = true
	s.OnUser = func(ev dise.UserEvent) {
		switch {
		case ev.Watchpoint != nil:
			fmt.Fprintf(c.out, "\nwatchpoint %q: new value %#x (pc %#x)\n", ev.Watchpoint.Name, ev.Value, ev.PC)
		case ev.Breakpoint != nil:
			fmt.Fprintf(c.out, "\nbreakpoint at %#x\n", ev.PC)
		default:
			fmt.Fprintf(c.out, "\ntrap at %#x\n", ev.PC)
		}
	}
	for _, w := range c.watches {
		if err := s.D.Watch(w); err != nil {
			return err
		}
	}
	for _, b := range c.breaks {
		if err := s.D.Break(b); err != nil {
			return err
		}
	}
	// A refused Install keeps no session, so the back end can change and
	// the program run again.
	if err := s.Install(); err != nil {
		return err
	}
	c.session = s
	if _, err := s.Run(0); err != nil {
		return err
	}
	c.report()
	return nil
}

func (c *cli) resume() error {
	if c.session.Halted() {
		return fmt.Errorf("program has exited")
	}
	if _, err := c.session.Continue(0); err != nil {
		return err
	}
	c.report()
	return nil
}

func (c *cli) report() {
	if c.session.Halted() {
		st := c.session.M.Core.Stats()
		fmt.Fprintf(c.out, "program exited: %d instructions, %d cycles (IPC %.2f)\n",
			st.AppInsts, st.Cycles, st.IPC())
	}
}

func (c *cli) info() error {
	if c.session == nil {
		fmt.Fprintf(c.out, "backend %v, machine %s, %d watchpoints, %d breakpoints (not started)\n",
			c.backend, c.machine, len(c.watches), len(c.breaks))
		return nil
	}
	st := c.session.M.Core.Stats()
	tr := c.session.Transitions()
	fmt.Fprintf(c.out, "backend %v, machine %s\n", c.backend, c.machine)
	fmt.Fprintf(c.out, "cycles %d, insts %d, IPC %.2f\n", st.Cycles, st.AppInsts, st.IPC())
	fmt.Fprintf(c.out, "transitions: user %d, spurious addr %d, value %d, pred %d\n",
		tr.User, tr.SpuriousAddr, tr.SpuriousValue, tr.SpuriousPred)
	fmt.Fprintf(c.out, "trap stall cycles: %d\n", st.TrapStallCycles)
	return nil
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}
