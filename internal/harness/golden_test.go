package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperSuiteGolden pins the simulated results behind the paper's
// tables: RunAll at the benchmark's 30K-instruction budget must print
// bench/golden/paper-suite.txt byte for byte. The shape tests above
// accept any numbers with the right ordering; this one fails on a
// one-cycle change to any latency. The file is read from the benchmark's
// directory, so the repository keeps a single copy.
func TestPaperSuiteGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "bench", "golden", "paper-suite.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range RunAll(Config{Budget: 30_000}) {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	got := b.String()
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
			t.Fatalf("paper suite differs from the golden file at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
