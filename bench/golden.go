package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// goldenFS holds the checked-in outputs the runs are compared against;
// they are compiled in so the check does not depend on the working
// directory.
//
//go:embed golden/*.txt
var goldenFS embed.FS

// checkGolden compares got with golden file name, or writes it when
// the run regenerates the golden files (run.sh runs from the repository
// root).
func (c *config) checkGolden(name, got string) error {
	if c.writeGolden {
		return os.WriteFile(filepath.Join("bench", "golden", name), []byte(got), 0o644)
	}
	want, err := goldenFS.ReadFile("golden/" + name)
	if err != nil {
		return fmt.Errorf("golden %s: %w (regenerate with -write-golden)", name, err)
	}
	if err := diffLines(string(want), got); err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	return nil
}

// diffLines reports the first line where got departs from want.
func diffLines(want, got string) error {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(w), len(g)); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			return fmt.Errorf("line %d: want %q, got %q", i+1, a, b)
		}
	}
	return nil
}

// digest is a short content hash of the printed values.
func digest(vs ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", vs)))
	return hex.EncodeToString(sum[:8])
}
