package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// genProgram returns the assembly source of a seed-shaped debuggee: an
// endless loop of stores, loads and ALU fill over a bufBytes buffer (a
// power of two), which writes a new value to the watched quad v once
// every 2-8K instructions. The loop never halts, so a session can
// continue and step it for as long as the client likes.
func genProgram(r *rand.Rand, bufBytes int) string {
	left := [3]int{2 + r.IntN(7), 2 + r.IntN(4), r.IntN(3)} // fill, stores, loads
	body := left[0] + left[1] + 2*left[2] + 7
	period := (2000 + r.IntN(6001)) / body // iterations between writes to v
	half := bufBytes / 2
	maxDisp := min(half, 32768)

	var b strings.Builder
	fmt.Fprintf(&b, ".data\nv: .quad 0\n.align 64\nbuf: .space %d\n.text\nmain:\n", bufBytes)
	fmt.Fprintf(&b, "    la r1, buf\n    la r2, v\n    li r3, 1000000000\n    li r4, 0\n")
	fmt.Fprintf(&b, "    li r5, %d\n    li r9, 0\n    li r10, %d\n    li r13, %d\n",
		period, half-1, 64*left[1])
	b.WriteString("    bis r1, zero, r11\nloop:\n    .stmt\n")
	// The loop body draws fill ops (chains r6-r8), stores, and load+use
	// pairs in a seed-chosen order.
	for st := 0; left[0]+left[1]+left[2] > 0; {
		c := 6 + r.IntN(3)
		switch k := r.IntN(left[0] + left[1] + left[2]); {
		case k < left[0]:
			left[0]--
			fmt.Fprintf(&b, "    addq r%d, #%d, r%d\n", c, 1+r.IntN(7), c)
		case k < left[0]+left[1]:
			left[1]--
			fmt.Fprintf(&b, "    stq r%d, %d(r11)\n", c, (64*st+8*r.IntN(8))%maxDisp)
			st++
		default:
			left[2]--
			fmt.Fprintf(&b, "    ldq r12, %d(r11)\n    addq r%d, r12, r%d\n", 8*r.IntN(maxDisp/8), c, c)
		}
	}
	fmt.Fprintf(&b, "    subq r5, #1, r5\n    bne r5, skip\n    .stmt\n")
	fmt.Fprintf(&b, "    addq r4, #1, r4\n    stq r4, 0(r2)\n    li r5, %d\nskip:\n", period)
	b.WriteString("    addq r9, r13, r9\n    and r9, r10, r9\n    addq r1, r9, r11\n")
	b.WriteString("    subq r3, #1, r3\n    bne r3, loop\n    halt\n")
	return b.String()
}
