package serve

import (
	"fmt"
	"testing"

	"repro/internal/debug"
	"repro/internal/machine"
	"repro/internal/workload"
)

// BenchmarkServeConcurrent measures service throughput at 1, 8, and 64
// concurrent sessions: every session runs the same gcc-shaped kernel for
// a fixed instruction budget, and the benchmark reports aggregate
// simulated Minsts/s and completed sessions/sec. Workers default to
// GOMAXPROCS, so on an M-core runner aggregate throughput should
// approach M× a single session's (the sessions share nothing but the
// scheduler); at 64 sessions it also exercises machine recycling — only
// the first max-concurrency wave builds machines, later waves run on
// pool returns.
func BenchmarkServeConcurrent(b *testing.B) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		b.Fatal("no gcc workload")
	}
	w := workload.MustBuild(spec, 1<<20)
	const perSession = 200_000 // simulated app instructions per session

	// run executes one benchmark configuration: every session j takes
	// configs[j % len(configs)], so configs={zero} is the homogeneous
	// case and a longer list exercises the config-keyed pools. The mixed
	// variants should stay within ~10% of the homogeneous ones — sessions
	// of different machine configurations share nothing but the
	// scheduler and their own pool key.
	run := func(b *testing.B, n int, configs []SessionConfig) {
		srv := New(Config{Quantum: 25_000, MaxSessions: n})
		defer srv.Close()
		totalInsts := uint64(0)
		sessionsDone := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sessions := make([]*Session, n)
			for j := range sessions {
				s, err := srv.CreateWith(w.Program, debug.DefaultOptions(debug.BackendDise), configs[j%len(configs)])
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Continue(perSession); err != nil {
					b.Fatal(err)
				}
				sessions[j] = s
			}
			for _, s := range sessions {
				s.Wait()
				st, _ := s.Stats()
				if st.AppInsts != perSession {
					b.Fatalf("session ran %d insts, want %d", st.AppInsts, perSession)
				}
				totalInsts += st.AppInsts
				sessionsDone++
				s.Close()
			}
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(totalInsts)/secs/1e6, "Minsts/s")
		b.ReportMetric(float64(sessionsDone)/secs, "sessions/s")
	}

	homogeneous := []SessionConfig{{}}
	var mixed []SessionConfig
	for _, name := range []string{"default", "small-cache", "big-l2"} {
		cfg, ok := machine.PresetConfig(name)
		if !ok {
			b.Fatalf("no preset %q", name)
		}
		mixed = append(mixed, SessionConfig{Machine: cfg})
	}

	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) { run(b, n, homogeneous) })
	}
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("mixed/sessions=%d", n), func(b *testing.B) { run(b, n, mixed) })
	}
}

// BenchmarkPoolRecycle isolates the cost of one Put+Get cycle — the full
// machine Reset — against building a machine from scratch.
func BenchmarkPoolRecycle(b *testing.B) {
	cfg := DefaultConfig().Machine
	pool := NewPoolSet(1)
	m := pool.Get(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Put(m)
		m = pool.Get(cfg)
	}
}

// BenchmarkSnapshot isolates the cost of one machine snapshot on a warm
// gcc workload — the per-checkpoint price the serve layer pays. A memory
// snapshot copies no page, only the page map: the machine shares every
// page with the State and copies one on its next write. The wire
// encoding is measured separately by the bytes metric.
func BenchmarkSnapshot(b *testing.B) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		b.Fatal("no gcc workload")
	}
	w := workload.MustBuild(spec, 1<<20)
	m := machine.New(DefaultConfig().Machine)
	m.Load(w.Program)
	if _, err := m.Run(100_000); err != nil {
		b.Fatal(err)
	}
	st := m.Snapshot()
	encoded := len(st.Encode())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = m.Snapshot()
	}
	// Reported after the loop: ResetTimer discards metrics reported
	// before it.
	b.ReportMetric(float64(encoded), "encoded-bytes")
}

// BenchmarkCheckpointOverhead reruns the homogeneous 8-session serve
// workload with periodic checkpointing on, so the delta against
// BenchmarkServeConcurrent/sessions=8 is the end-to-end cost of crash
// safety at a given cadence.
func BenchmarkCheckpointOverhead(b *testing.B) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		b.Fatal("no gcc workload")
	}
	w := workload.MustBuild(spec, 1<<20)
	const perSession = 200_000
	const n = 8
	for _, every := range []int{1, 4} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			srv := New(Config{Quantum: 25_000, MaxSessions: n, CheckpointEvery: every})
			defer srv.Close()
			totalInsts := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sessions := make([]*Session, n)
				for j := range sessions {
					s, err := srv.Create(w.Program, debug.DefaultOptions(debug.BackendDise))
					if err != nil {
						b.Fatal(err)
					}
					if err := s.Continue(perSession); err != nil {
						b.Fatal(err)
					}
					sessions[j] = s
				}
				for _, s := range sessions {
					s.Wait()
					st, _ := s.Stats()
					totalInsts += st.AppInsts
					s.Close()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(totalInsts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
		})
	}
}
