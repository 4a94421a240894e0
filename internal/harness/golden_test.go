package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/debug"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestPaperSuiteGolden pins the simulated results behind the paper's
// tables: RunAll at the benchmark's 30K-instruction budget must print
// bench/golden/paper-suite.txt byte for byte. The shape tests above
// accept any numbers with the right ordering; this one fails on a
// one-cycle change to a latency that its runs reach. No kernel executes
// a multiply, so the multiplier's latency and count are pinned by the
// pipeline's TestMultiplierTiming instead. The file is read from the
// benchmark's directory, so the repository keeps a single copy.
func TestPaperSuiteGolden(t *testing.T) {
	var b strings.Builder
	for _, tb := range RunAll(Config{Budget: 30_000}) {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	checkGolden(t, "paper-suite.txt", b.String())
}

// TestSimGolden pins what the paper-suite tables do not print: every
// simulator statistic of the benchmark's sim-plain and sim-dise runs —
// pipeline (uop counters included), memory system, DISE engine, branch
// predictor and debugger transitions — through the per-run digest of
// bench/golden/sim-plain.txt and sim-dise.txt. It rebuilds those files'
// lines as bench/sim.go does: the six kernels sized for 300K
// instructions, each run to halt on a fresh default machine undebugged,
// and under the DISE back end with the COLD and then the HOT watchpoint.
func TestSimGolden(t *testing.T) {
	var kernels []*workload.Workload
	for _, spec := range workload.Specs() {
		kernels = append(kernels, workload.MustBuild(spec, iterations(spec, 300_000)))
	}
	for _, golden := range []struct {
		file    string
		watches []string
	}{
		{"sim-plain.txt", []string{"none"}},
		{"sim-dise.txt", []string{"COLD", "HOT"}},
	} {
		var lines []string
		for _, k := range kernels {
			for _, watch := range golden.watches {
				lines = append(lines, simLine(t, k, watch))
			}
		}
		slices.Sort(lines)
		checkGolden(t, golden.file, strings.Join(lines, "\n")+"\n")
	}
}

// simLine runs one kernel to halt and prints the line bench/sim.go's op
// prints for it.
func simLine(t *testing.T, k *workload.Workload, watch string) string {
	t.Helper()
	m := machine.NewDefault()
	m.Load(k.Program)
	var trans debug.TransitionStats
	var d *debug.Debugger
	if watch != "none" {
		d = debug.New(m, debug.DefaultOptions(debug.BackendDise))
		if err := d.Watch(WatchpointFor(k, watch, nil)); err != nil {
			t.Fatal(err)
		}
		if err := d.Install(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.Run(0)
	if err != nil || !st.Halted {
		t.Fatalf("%s %s: run did not halt (err %v)", k.Spec.Name, watch, err)
	}
	if d != nil {
		trans = d.Stats()
	}
	return fmt.Sprintf("%s %s cycles=%d app_insts=%d dise_uops=%d func_insts=%d user=%d spurious=%d digest=%s",
		k.Spec.Name, watch, st.Cycles, st.AppInsts, st.DiseUops, st.FuncInsts, trans.User, trans.Spurious(),
		simDigest(st, m.MemStats(), m.Engine.Stats(), m.Core.BP.Stats(), trans))
}

// simDigest is a short content hash of the printed values. It is a copy
// of digest in bench/golden.go: the benchmark is a module of its own,
// which this package cannot import, and the two must hash alike for the
// golden files to serve both.
func simDigest(vs ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", vs)))
	return hex.EncodeToString(sum[:8])
}

// checkGolden compares got with the named file of bench/golden, read from
// the benchmark's directory so the repository keeps a single copy, and
// reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "bench", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", name, i+1, g, w)
		}
	}
}
