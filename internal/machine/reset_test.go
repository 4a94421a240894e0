package machine_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/debug"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestResetEncodesAsNew is the full-state form of the pool-recycle
// contract: a machine that ran a debugged kernel and was Reset encodes to
// the same bytes as a machine.New with its Config, so no part of the
// state (core run state, timing tables, store queue, predecoder, caches,
// predictor, DISE engine, memory) survives a recycle. One machine per
// preset and timing mode runs every kernel under every back end, watching
// its HOT variable for 20K instructions, and is Reset after each run. The
// machines run in parallel and share the kernels' program images.
func TestResetEncodesAsNew(t *testing.T) {
	var kernels []*workload.Workload
	for _, spec := range workload.Specs() {
		// Sized past the budget, so every run is cut off mid-kernel.
		iters := max(20, 30_000/(spec.Groups*(2+spec.Fill)+40))
		kernels = append(kernels, workload.MustBuild(spec, iters))
	}
	backends := []debug.Backend{
		debug.BackendSingleStep, debug.BackendVirtualMemory, debug.BackendHardwareReg,
		debug.BackendDise, debug.BackendBinaryRewrite,
	}
	for _, preset := range machine.Presets() {
		for _, linear := range []bool{false, true} {
			cfg, _ := machine.PresetConfig(preset)
			cfg.Core.LinearTiming = linear
			t.Run(fmt.Sprintf("%s/linear=%v", preset, linear), func(t *testing.T) {
				t.Parallel()
				fresh := machine.New(cfg).Snapshot().Encode()
				m := machine.New(cfg)
				for _, k := range kernels {
					for _, b := range backends {
						m.Load(k.Program)
						d := debug.New(m, debug.DefaultOptions(b))
						if err := d.Watch(harness.WatchpointFor(k, "HOT", nil)); err != nil {
							t.Fatal(err)
						}
						if err := d.Install(); err != nil {
							t.Fatal(err)
						}
						if st := m.MustRun(20_000); st.AppInsts != 20_000 {
							t.Fatalf("%s %v: ran %d instructions, want 20000", k.Spec.Name, b, st.AppInsts)
						}
						m.Reset()
						if !bytes.Equal(m.Snapshot().Encode(), fresh) {
							t.Fatalf("%s %v: a Reset machine encodes unlike a new one", k.Spec.Name, b)
						}
					}
				}
			})
		}
	}
}
