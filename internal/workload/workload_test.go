package workload

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/pipeline"
)

func buildAndRun(t *testing.T, spec Spec, iters int, budget uint64) (*Workload, *machine.Machine, pipeline.Stats) {
	t.Helper()
	w, err := Build(spec, iters)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(w.Program)
	st := m.MustRun(budget)
	return w, m, st
}

func TestAllSpecsBuildAndRun(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			w, _, st := buildAndRun(t, spec, 1<<20, 150_000)
			if st.AppInsts < 150_000 {
				t.Fatalf("ran only %d insts", st.AppInsts)
			}
			if st.Stores == 0 || st.Loads == 0 {
				t.Fatalf("no memory traffic: %+v", st)
			}
			density := st.StoreDensity()
			if density < spec.PaperDensity*0.6 || density > spec.PaperDensity*1.6 {
				t.Errorf("store density %.3f, paper %.3f", density, spec.PaperDensity)
			}
			t.Logf("%s: IPC=%.2f (paper %.2f) density=%.3f (paper %.3f) stores/iter=%d",
				spec.Name, st.IPC(), spec.PaperIPC, density, spec.PaperDensity, w.StoresPerIter)
		})
	}
}

// TestIPCShape checks the qualitative IPC ordering that the evaluation
// depends on: mcf must be memory-bound (lowest IPC by far); bzip2 and
// crafty near the high end.
func TestIPCShape(t *testing.T) {
	ipc := map[string]float64{}
	for _, spec := range Specs() {
		_, _, st := buildAndRun(t, spec, 1<<20, 150_000)
		ipc[spec.Name] = st.IPC()
	}
	if ipc["mcf"] > 0.9 {
		t.Errorf("mcf IPC = %.2f, should be memory-bound (< 0.9)", ipc["mcf"])
	}
	for _, fast := range []string{"bzip2", "crafty", "vortex"} {
		if ipc[fast] < 1.5 {
			t.Errorf("%s IPC = %.2f, want >= 1.5", fast, ipc[fast])
		}
		if ipc[fast] < 2.5*ipc["mcf"] {
			t.Errorf("%s (%.2f) should be far above mcf (%.2f)", fast, ipc[fast], ipc["mcf"])
		}
	}
	t.Logf("IPCs: %v", ipc)
}

// TestWriteFrequencies measures per-watchpoint write rates and compares
// them against the Table 2 targets (within a factor of two — the paper's
// behavior depends on orders of magnitude, not exact rates).
func TestWriteFrequencies(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			w, err := Build(spec, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.NewDefault()
			m.Load(w.Program)
			counts := map[string]uint64{}
			var stores, hotSilent uint64
			// hot shadows the HOT quad: a store that leaves it equal to the
			// shadow was silent.
			hot := m.ReadQuad(w.WP.Hot)
			in := func(addr, lo uint64, n uint64) bool { return addr >= lo && addr < lo+n }
			m.Core.Hooks.OnStore = func(ev pipeline.StoreEvent) uint64 {
				stores++
				switch {
				case in(ev.Addr, w.WP.Hot, 8):
					counts["hot"]++
					v := m.ReadQuad(w.WP.Hot)
					if v == hot {
						hotSilent++
					}
					hot = v
				case in(ev.Addr, w.WP.Warm1, 8):
					counts["warm1"]++
				case in(ev.Addr, w.WP.Warm2, 8):
					counts["warm2"]++
				case in(ev.Addr, w.WP.Cold, 8):
					counts["cold"]++
				case in(ev.Addr, w.WP.Range, w.WP.RangeLen):
					counts["range"]++
				}
				return 0
			}
			m.MustRun(400_000)
			per100K := func(c uint64) float64 { return float64(c) / float64(stores) * 100000 }
			check := func(name string, got uint64, want float64) {
				if want == 0 {
					if per100K(got) > 5 {
						t.Errorf("%s: measured %.1f/100K, paper ~0", name, per100K(got))
					}
					return
				}
				g := per100K(got)
				if want >= 5 && (g < want/2.5 || g > want*2.5) {
					t.Errorf("%s: measured %.1f/100K, paper %.1f", name, g, want)
				}
				if want < 5 && g > want*20+5 {
					t.Errorf("%s: measured %.1f/100K, paper %.1f (rare)", name, g, want)
				}
			}
			check("hot", counts["hot"], spec.HotF)
			check("warm1", counts["warm1"], spec.Warm1F)
			check("warm2", counts["warm2"], spec.Warm2F)
			check("cold", counts["cold"], spec.ColdF)
			check("range", counts["range"], spec.RangeF)
			if spec.HotSilentShift > 0 && counts["hot"] > 10 {
				frac := float64(hotSilent) / float64(counts["hot"])
				if frac < 0.35 {
					t.Errorf("hot silent fraction %.2f, want ~0.5", frac)
				}
			}
			t.Logf("%s: hot=%.0f w1=%.1f w2=%.2f cold=%.2f range=%.1f (per 100K)",
				spec.Name, per100K(counts["hot"]), per100K(counts["warm1"]),
				per100K(counts["warm2"]), per100K(counts["cold"]), per100K(counts["range"]))
		})
	}
}

func TestPointerRing(t *testing.T) {
	spec, _ := ByName("mcf")
	w, err := Build(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewDefault()
	m.Load(w.Program)
	// The ring is one random cycle over all its quads: a long walk must
	// not revisit an element early, and every pointer stays in range.
	base := w.Program.MustSymbol("ring")
	end := base + uint64(spec.RingBytes)
	p := base
	seen := make(map[uint64]bool, 5000)
	for i := 0; i < 5000; i++ {
		if seen[p] {
			t.Fatalf("ring walk revisited %#x after %d steps", p, i)
		}
		seen[p] = true
		if p < base || p >= end || p%8 != 0 {
			t.Fatalf("ring pointer %#x out of range", p)
		}
		p = m.ReadQuad(p)
	}
	m.MustRun(0)
	if !m.Core.Halted() {
		t.Error("mcf kernel did not halt")
	}
	// The run must not have corrupted the ring: re-walk a stretch.
	p = base
	for i := 0; i < 1000; i++ {
		p = m.ReadQuad(p)
		if p < base || p >= end {
			t.Fatalf("ring corrupted during run at step %d", i)
		}
	}
}

func TestPageLayout(t *testing.T) {
	// Shared watchpoints must sit on the locals page; private ones must
	// not share a page with anything written per iteration.
	for _, spec := range Specs() {
		w, err := Build(spec, 10)
		if err != nil {
			t.Fatal(err)
		}
		locals := w.Program.MustSymbol("locals")
		page := func(a uint64) uint64 { return a >> 12 }
		if spec.Warm1Shared != (page(w.WP.Warm1) == page(locals)) {
			t.Errorf("%s: warm1 shared=%v but page layout disagrees", spec.Name, spec.Warm1Shared)
		}
		if spec.ColdShared != (page(w.WP.Cold) == page(locals)) {
			t.Errorf("%s: cold shared=%v but page layout disagrees", spec.Name, spec.ColdShared)
		}
		if page(w.WP.Hot) == page(locals) {
			t.Errorf("%s: hot must not share the locals page", spec.Name)
		}
		// vars[] lives on the locals page by design (Figure 6).
		if page(w.WP.Vars) != page(locals) {
			t.Errorf("%s: vars should share the locals page", spec.Name)
		}
		// ptr points at hot.
		m := machine.NewDefault()
		m.Load(w.Program)
		if m.ReadQuad(w.WP.Ptr) != w.WP.Hot {
			t.Errorf("%s: ptr does not point at hot", spec.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("bzip2"); !ok {
		t.Error("bzip2 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unexpected benchmark")
	}
}
