package obs

import (
	"strings"
	"testing"
	"time"
)

// BenchmarkMetricsOverhead is the instrumentation price list: one
// counter increment, one histogram observation, and one trace-ring
// append — the three operations the serve hot path performs per
// quantum/wire-op. All must be 0 allocs/op (TestAllocFree enforces it;
// the bench reports it); scripts/bench_smoke.sh runs this
// informationally and the numbers are recorded in
// scripts/bench_baseline.txt.
func BenchmarkMetricsOverhead(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		var c Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(uint64(i))
		}
	})
	b.Run("trace-ring", func(b *testing.B) {
		r := NewTraceRing(256)
		now := time.Now().UnixNano()
		ev := TraceEvent{Kind: "quantum-end", TimeNs: now, DurNs: 12345, Insts: 25000}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Append(ev)
		}
	})
	b.Run("trace-ring-stamped", func(b *testing.B) {
		// With the time.Now stamp included — the real per-event cost when
		// the caller does not supply a timestamp.
		r := NewTraceRing(256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Append(TraceEvent{Kind: "quantum-end", DurNs: 12345, Insts: 25000})
		}
	})
}

// BenchmarkScrape prices one full exposition pass at a realistic
// registry size — scrape cost is off the hot path but should stay
// cheap enough for a tight Prometheus scrape interval.
func BenchmarkScrape(b *testing.B) {
	r := NewRegistry()
	for _, op := range []string{"create", "continue", "wait", "stats", "read", "close"} {
		h := r.Histogram("bench_wire_op_ns", `op="`+op+`"`, "wire op latency")
		for i := uint64(0); i < 1000; i++ {
			h.Observe(i * 100)
		}
	}
	for _, kind := range []string{"shed", "fault", "recovery", "drop"} {
		r.Counter("bench_events_total", `kind="`+kind+`"`, "event counts").Add(5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink strings.Builder
		if err := r.WritePrometheus(&sink); err != nil {
			b.Fatal(err)
		}
	}
}
