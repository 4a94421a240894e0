package machine

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/workload"
)

// copyLoad puts p into m the long way: the text one word at a time
// through Write, and every data byte copied into pages the memory owns by
// WriteBytes.
func copyLoad(m *Machine, p *asm.Program) {
	m.Program = p
	for i, w := range p.Text {
		m.Mem.Write(p.TextBase+uint64(i)*4, 4, uint64(w))
	}
	m.Mem.WriteBytes(p.DataBase, p.Data)
	m.Core.Regs[30] = asm.DefaultStackTop
	m.Core.SetPC(p.Entry)
}

// kernelIterations is internal/harness's outer-loop sizing for a kernel
// and a budget of application instructions per run.
func kernelIterations(spec workload.Spec, budget uint64) int {
	return max(20, int(float64(budget)/(float64(spec.Groups*(2+spec.Fill))+40)))
}

// TestImageLoadEncodesAsCopyLoad: a machine that loads its program with
// Load (text in one write, the data image mapped) and one that copies it
// in with copyLoad encode to the same bytes, mid-run and at halt, for
// every kernel at the harness's 30K sizing. mcf's 4 MiB
// ring is the case the mapping exists for: a run writes a handful of its
// pages.
func TestImageLoadEncodesAsCopyLoad(t *testing.T) {
	for _, spec := range workload.Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			p := workload.MustBuild(spec, kernelIterations(spec, 30_000)).Program
			data := bytes.Clone(p.Data)
			img, cp := NewDefault(), NewDefault()
			img.Load(p)
			copyLoad(cp, p)
			for _, budget := range []uint64{10_000, 0} {
				a, b := img.MustRun(budget), cp.MustRun(budget)
				if a != b {
					t.Fatalf("budget %d: stats differ:\n%+v\n%+v", budget, a, b)
				}
				if !bytes.Equal(img.Snapshot().Encode(), cp.Snapshot().Encode()) {
					t.Fatalf("budget %d: Encode differs from the copy-loaded machine's", budget)
				}
			}
			if !img.Core.Halted() {
				t.Fatal("kernel did not halt")
			}
			if !bytes.Equal(p.Data, data) {
				t.Fatal("the run changed the program's data image")
			}
		})
	}
}
