package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the log₂ bucketing contract: value
// v lands in bucket bits.Len64(v), bucket i's inclusive upper bound is
// 2^i - 1, and every power-of-two edge splits exactly as documented.
func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11}, {1025, 11},
		{1<<20 - 1, 20}, {1 << 20, 21},
		{math.MaxUint64, HistBuckets - 1}, // clamped into the last bucket
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := make([]uint64, HistBuckets)
	for _, c := range cases {
		want[c.bucket]++
	}
	got := h.Snapshot()
	for i := range want {
		if got.Buckets[i] != want[i] {
			t.Errorf("bucket %d (bound %d): got %d, want %d", i, BucketBound(i), got.Buckets[i], want[i])
		}
	}
	if got.Count != uint64(len(cases)) {
		t.Errorf("count %d, want %d", got.Count, len(cases))
	}
	var sum uint64
	for _, c := range cases {
		sum += c.v
	}
	if got.Sum != sum {
		t.Errorf("sum %d, want %d", got.Sum, sum)
	}
	// Bounds are consistent with the placement rule: BucketBound(i) is
	// the largest value whose Len is i, and BucketBound(i)+1 has Len i+1.
	for i := 1; i < HistBuckets-1; i++ {
		if bits.Len64(BucketBound(i)) != i {
			t.Errorf("BucketBound(%d)=%d has Len %d", i, BucketBound(i), bits.Len64(BucketBound(i)))
		}
		if bits.Len64(BucketBound(i)+1) != i+1 {
			t.Errorf("BucketBound(%d)+1 should start bucket %d", i, i+1)
		}
	}
}

// TestConcurrentHammer hammers a counter and a histogram from many
// goroutines (run under -race in CI) and checks the exact totals.
func TestConcurrentHammer(t *testing.T) {
	const goroutines = 16
	const perG = 10_000
	var (
		c  Counter
		h  Histogram
		wg sync.WaitGroup
	)
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				c.Add(2)
				h.Observe(uint64(id*perG + j))
			}
		}(i)
	}
	// Concurrent readers must not race with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = c.Load()
			_ = h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got, want := c.Load(), uint64(goroutines*perG*3); got != want {
		t.Errorf("counter %d, want %d", got, want)
	}
	s := h.Snapshot()
	if got, want := s.Count, uint64(goroutines*perG); got != want {
		t.Errorf("histogram count %d, want %d", got, want)
	}
	var bucketTotal uint64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// parsePrometheus parses the text exposition format into
// "name{labels}" -> value, tolerating comment lines.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparsable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestPrometheusExposition registers one of everything and checks the
// text output: HELP/TYPE lines, sample values, cumulative histogram
// buckets, multi-gauge expansion.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", `op="get"`, "operations")
	c2 := r.Counter("test_ops_total", `op="put"`, "operations")
	h := r.Histogram("test_latency_ns", "", "latency")
	r.CounterFunc("test_fn_total", "", "sampled", func() uint64 { return 7 })
	r.GaugeFunc("test_fn_gauge", "", "sampled", func() int64 { return -3 })
	r.MultiGaugeFunc("test_by_preset", "per-preset", func() map[string]int64 {
		return map[string]int64{`preset="a"`: 1, `preset="b"`: 2}
	})

	c.Add(5)
	c2.Inc()
	h.Observe(0)
	h.Observe(3)    // bucket 2
	h.Observe(1000) // bucket 10
	h.Observe(1000)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"# TYPE test_fn_gauge gauge",
		"# TYPE test_latency_ns histogram",
		"# HELP test_ops_total operations",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in exposition:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# TYPE test_ops_total"); n != 1 {
		t.Errorf("TYPE emitted %d times for one family", n)
	}
	vals := parsePrometheus(t, text)
	expect := map[string]float64{
		`test_ops_total{op="get"}`:          5,
		`test_ops_total{op="put"}`:          1,
		"test_fn_total":                     7,
		"test_fn_gauge":                     -3,
		`test_by_preset{preset="a"}`:        1,
		`test_by_preset{preset="b"}`:        2,
		`test_latency_ns_bucket{le="0"}`:    1,
		`test_latency_ns_bucket{le="3"}`:    2, // cumulative
		`test_latency_ns_bucket{le="1023"}`: 4,
		`test_latency_ns_bucket{le="+Inf"}`: 4,
		"test_latency_ns_count":             4,
		"test_latency_ns_sum":               2003,
	}
	for k, want := range expect {
		if got, ok := vals[k]; !ok {
			t.Errorf("missing sample %q", k)
		} else if got != want {
			t.Errorf("%s = %g, want %g", k, got, want)
		}
	}
	// JSON snapshot agrees with the instruments.
	js := r.SnapshotJSON()
	if js[`test_ops_total{op="get"}`] != uint64(5) {
		t.Errorf("json counter = %v", js[`test_ops_total{op="get"}`])
	}
	hs, ok := js["test_latency_ns"].(HistogramSnapshot)
	if !ok || hs.Count != 4 {
		t.Errorf("json histogram = %#v", js["test_latency_ns"])
	}
}

// TestRegistryConflicts pins the fail-loud registration contract.
func TestRegistryConflicts(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("x_total", "", "")
	mustPanic("duplicate", func() { r.Counter("x_total", "", "") })
	mustPanic("cross-kind", func() { r.GaugeFunc("x_total", "", "", func() int64 { return 0 }) })
	r.Counter("x_total", `op="a"`, "") // same family, new labels: fine
}

// TestTraceRing covers fill, wrap, seq continuity, and the nil ring.
func TestTraceRing(t *testing.T) {
	r := NewTraceRing(4)
	for i := 1; i <= 3; i++ {
		r.Append(TraceEvent{Kind: fmt.Sprintf("e%d", i)})
	}
	if got := r.Snapshot(); len(got) != 3 || got[0].Kind != "e1" || got[2].Kind != "e3" {
		t.Fatalf("partial ring snapshot wrong: %+v", got)
	}
	for i := 4; i <= 10; i++ {
		r.Append(TraceEvent{Kind: fmt.Sprintf("e%d", i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("full ring holds %d, want 4", len(got))
	}
	for i, ev := range got {
		if want := fmt.Sprintf("e%d", 7+i); ev.Kind != want {
			t.Errorf("slot %d: got %s, want %s (oldest-first after wrap)", i, ev.Kind, want)
		}
		if ev.Seq != uint64(7+i) {
			t.Errorf("slot %d: seq %d, want %d", i, ev.Seq, 7+i)
		}
		if ev.TimeNs == 0 {
			t.Errorf("slot %d: timestamp not stamped", i)
		}
	}
	if r.Total() != 10 || r.Len() != 4 {
		t.Errorf("total/len = %d/%d, want 10/4", r.Total(), r.Len())
	}

	var nilRing *TraceRing
	nilRing.Append(TraceEvent{Kind: "x"}) // must not panic
	if nilRing.Snapshot() != nil || nilRing.Len() != 0 || nilRing.Total() != 0 {
		t.Error("nil ring is not inert")
	}
	if NewTraceRing(0) != nil {
		t.Error("depth 0 should build the disabled ring")
	}
}

// TestAllocFree holds every hot-path operation to zero heap
// allocations — the package's reason to exist.
func TestAllocFree(t *testing.T) {
	var (
		c Counter
		h Histogram
	)
	r := NewTraceRing(64)
	ev := TraceEvent{Kind: "quantum-end", DurNs: 12345, Insts: 25000}
	checks := []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Histogram.Observe", func() { h.Observe(123456) }},
		{"TraceRing.Append", func() { r.Append(ev) }},
	}
	for _, ck := range checks {
		if allocs := testing.AllocsPerRun(100, ck.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", ck.name, allocs)
		}
	}
}
