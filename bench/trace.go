package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// span is one timed call from the bench into a module. Parent is the
// span that caused this one; spans of one request (a round, a session)
// share Req, the ID of the request's outermost span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil or disabled tracer records nothing. Like the recorders, it is used
// from the run's own goroutine only.
type tracer struct {
	t0    time.Time
	on    bool
	next  uint64
	spans []span
}

// start opens a span; it returns nil while tracing is off.
func (t *tracer) start(name string, parent *span) *span {
	if t == nil || !t.on {
		return nil
	}
	t.next++
	s := &span{ID: t.next, Name: name, Start: time.Since(t.t0).Nanoseconds()}
	s.Req = s.ID
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	}
	return s
}

// finish closes and records s (nil is a no-op).
func (t *tracer) finish(s *span) {
	if s == nil {
		return
	}
	s.End = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, *s)
}

// within runs f inside a span named name.
func (t *tracer) within(name string, parent *span, f func()) {
	s := t.start(name, parent)
	f()
	t.finish(s)
}

// meanMs is the mean duration of the recorded spans named name.
func (t *tracer) meanMs(name string) float64 {
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// sumMs is the total duration of the recorded spans named name.
func (t *tracer) sumMs(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / 1e6
		}
	}
	return sum
}

// writeJSON writes v to dir/name.
func writeJSON(dir, name string, v any) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfile starts the CPU profile written to dir/cpu.pprof; the
// returned stop function ends it.
func startProfile(dir string) (stop func() error, err error) {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// runtimeStats is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeStats struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func (s *runtimeStats) read() {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.gcCycles = ms[1].Value.Uint64()
	s.gcCPU = ms[2].Value.Float64()
	s.totalCPU = ms[3].Value.Float64()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap the process's live state occupies, measured
// after a full GC. Unlike resident memory, it does not depend on when the
// collector last ran or how much freed memory the runtime kept.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
