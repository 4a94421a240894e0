package debug_test

import (
	"testing"

	"repro/internal/debug"
)

// TestHWRegisterSpillOnStraddlingScalars: a scalar that straddles a quad
// boundary consumes two hardware registers; with four watchpoints of that
// shape the register file overflows and later watchpoints must spill to
// virtual memory.
func TestHWRegisterSpillOnStraddlingScalars(t *testing.T) {
	m := loadProg(t, `
.data
.align 4096
pad:  .long 0           ; mis-align what follows
s1:   .quad 0           ; straddles a quad boundary: 2 registers
s2:   .quad 0           ; straddles too: 2 registers (file now full)
pad2: .long 0           ; realign so s3 shares no quad with s2
s3:   .quad 0           ; must spill to page protection
busy: .quad 0           ; same page as s3: spurious faults under VM
.text
main:
    la  r1, s3
    li  r2, 5
    stq r2, 0(r1)    ; watched via VM spill: change -> user
    la  r3, busy
    stq r2, 0(r3)    ; unwatched, same protected page -> spurious
    halt
`)
	d := debug.New(m, debug.DefaultOptions(debug.BackendHardwareReg))
	for _, sym := range []string{"s1", "s2", "s3"} {
		if err := d.Watch(&debug.Watchpoint{
			Name: sym, Kind: debug.WatchScalar,
			Addr: m.Program.MustSymbol(sym), Size: 8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	m.MustRun(0)
	s := d.Stats()
	if s.User != 1 {
		t.Errorf("user = %d, want 1 (s3 via VM spill); stats %+v", s.User, s)
	}
	if s.SpuriousAddr != 1 {
		t.Errorf("spurious addr = %d, want 1 (busy on the protected page); stats %+v", s.SpuriousAddr, s)
	}
}
