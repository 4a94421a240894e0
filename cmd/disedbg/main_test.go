package main

import (
	"strings"
	"testing"
)

const testProg = `
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

// drive runs the repl over scripted commands and returns its output.
func drive(t *testing.T, commands ...string) string {
	t.Helper()
	var out strings.Builder
	in := strings.NewReader(strings.Join(commands, "\n") + "\n")
	if err := repl(testProg, "test.s", in, &out); err != nil {
		t.Fatalf("repl: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

// TestMainPathLoadBreakContinueStats drives the CLI the way the paper's
// gdb sessions go: load, set a breakpoint, run, continue through hits,
// inspect statistics, quit.
func TestMainPathLoadBreakContinueStats(t *testing.T) {
	out := drive(t,
		"break loop",
		"run",
		"continue",
		"x v",
		"info",
		"continue",
		"quit",
	)
	for _, want := range []string{
		"loaded test.s",
		"breakpoint 1 at",
		"\nbreakpoint at",   // run stops at the first hit
		"transitions: user", // info prints transition accounting
		"cycles",            // info prints timing stats
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// run + 2 continues = 3 breakpoint stops.
	if got := strings.Count(out, "\nbreakpoint at"); got != 3 {
		t.Errorf("breakpoint stops = %d, want 3\n%s", got, out)
	}
	// v counts down from 10; after the second hit the first store has
	// happened, so x v reads 10.
	if !strings.Contains(out, ": 0xa\n") {
		t.Errorf("x v did not read 10:\n%s", out)
	}
}

// TestMainPathWatchToCompletion sets a watchpoint, runs through all ten
// user transitions, and checks the exit report and accounting.
func TestMainPathWatchToCompletion(t *testing.T) {
	cmds := []string{"watch v", "run"}
	for i := 0; i < 10; i++ {
		cmds = append(cmds, "continue")
	}
	cmds = append(cmds, "info", "quit")
	out := drive(t, cmds...)
	if got := strings.Count(out, "watchpoint \"v\": new value"); got != 10 {
		t.Errorf("watchpoint hits = %d, want 10\n%s", got, out)
	}
	if !strings.Contains(out, "program exited: ") {
		t.Errorf("no exit report:\n%s", out)
	}
	if !strings.Contains(out, "transitions: user 10,") {
		t.Errorf("transition accounting wrong:\n%s", out)
	}
}

// TestBackendSelection runs the same session under the single-step back
// end, whose stops come from traps rather than DISE productions.
func TestBackendSelection(t *testing.T) {
	out := drive(t,
		"backend step",
		"watch v",
		"run",
		"continue",
		"quit",
	)
	if !strings.Contains(out, "backend: single-step") {
		t.Errorf("backend not switched:\n%s", out)
	}
	if got := strings.Count(out, "watchpoint \"v\": new value"); got != 2 {
		t.Errorf("watchpoint hits = %d, want 2\n%s", got, out)
	}
}

// TestMachinePresetSelection runs the session on a named machine preset
// and checks the preset is reported, locked after run, and validated.
func TestMachinePresetSelection(t *testing.T) {
	cmds := []string{"machine small-cache", "watch v", "info", "run"}
	for i := 0; i < 10; i++ {
		cmds = append(cmds, "continue")
	}
	cmds = append(cmds, "info", "machine big-l2", "quit") // change too late: locked after run
	out := drive(t, cmds...)
	if !strings.Contains(out, "machine: small-cache") {
		t.Errorf("machine not switched:\n%s", out)
	}
	if !strings.Contains(out, "machine small-cache, 1 watchpoints") {
		t.Errorf("info does not report the machine before run:\n%s", out)
	}
	if !strings.Contains(out, "backend dise, machine small-cache") {
		t.Errorf("info does not report the machine after run:\n%s", out)
	}
	if !strings.Contains(out, "program exited: ") {
		t.Errorf("no exit report on preset machine:\n%s", out)
	}
	if !strings.Contains(out, "error: cannot change machine after run") {
		t.Errorf("machine change after run not rejected:\n%s", out)
	}
	if !strings.Contains(drive(t, "machine warp9", "quit"), "unknown machine preset") {
		t.Error("bad preset not rejected")
	}
}

// TestCommandErrors exercises the error paths without crashing the loop.
func TestCommandErrors(t *testing.T) {
	out := drive(t,
		"bogus",
		"watch nosuchsym",
		"break 99zz",
		"continue", // before run
		"backend nope",
		"quit",
	)
	if got := strings.Count(out, "error:"); got != 5 {
		t.Errorf("errors reported = %d, want 5\n%s", got, out)
	}
}

// TestRunAfterRefusedInstall: a run whose Install the back end refuses
// (the hardware back end cannot watch through a pointer) keeps no
// session, so the back end can change and the program run again.
func TestRunAfterRefusedInstall(t *testing.T) {
	out := drive(t,
		"backend hw",
		"watch *v",
		"run",
		"backend dise",
		"run",
		"quit",
	)
	if !strings.Contains(out, "error: debug: hardware backend cannot watch indirect expression") {
		t.Errorf("hardware Install not refused:\n%s", out)
	}
	if got := strings.Count(out, "error:"); got != 1 {
		t.Errorf("errors reported = %d, want 1 (the refused Install)\n%s", got, out)
	}
	if !strings.Contains(out, "backend: dise") || !strings.Contains(out, "program exited: ") {
		t.Errorf("no run to exit on the second back end:\n%s", out)
	}
}
