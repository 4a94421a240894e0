package pipeline_test

import (
	"fmt"
	"strings"
	"testing"
)

// mulLoop is a loop of iters iterations, each running eight mulq: one
// chain through r1 when dependent, otherwise eight multiplies of the same
// two sources into eight different registers.
func mulLoop(iters int, dependent bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "main:\n    li r1, 3\n    li r2, 5\n    li r10, %d\nloop:\n", iters)
	for k := 0; k < 8; k++ {
		if dependent {
			b.WriteString("    mulq r1, r2, r1\n")
		} else {
			fmt.Fprintf(&b, "    mulq r1, r2, r%d\n", 11+k)
		}
	}
	b.WriteString("    subq r10, #1, r10\n    bne r10, loop\n    halt\n")
	return b.String()
}

// TestMultiplierTiming pins the default core's multiplier, which no
// kernel and no golden reaches: the marginal cost of 800 more multiplies
// (100 more iterations) is 5,600 cycles on a dependent chain, the 7-cycle
// multiply latency, and 800 cycles on independent ones, the one
// pipelined multiplier accepting one multiply a cycle. The constants are
// checked in rather than read from the configuration, so a change to
// either MulLatency or IntMuls fails here.
func TestMultiplierTiming(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dependent bool
		want      uint64
	}{
		{"dependent", true, 5600},
		{"independent", false, 800},
	} {
		_, short := run(t, mulLoop(100, tc.dependent))
		_, long := run(t, mulLoop(200, tc.dependent))
		if got := long.Cycles - short.Cycles; got != tc.want {
			t.Errorf("%s: 100 more iterations took %d more cycles (%d -> %d), want %d",
				tc.name, got, short.Cycles, long.Cycles, tc.want)
		}
	}
}
