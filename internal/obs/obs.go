// Package obs is the observability core: allocation-free atomic
// counters and log₂-bucketed histograms behind a named registry, gauges
// sampled at scrape time, plus a bounded per-entity trace ring
// (trace.go).
//
// The design constraint comes straight from the paper: instrumentation
// must be measurably near-free on the hot path. Every mutating
// operation — Counter.Inc, Histogram.Observe, TraceRing.Append — is
// lock-free (or per-entity-locked by the caller), touches only fixed
// preallocated storage, and performs zero heap allocations;
// BenchmarkMetricsOverhead and TestAllocFree hold the package to that.
// All the string formatting, sorting, and map walking happens at scrape
// time, on the scraper's goroutine.
//
// A Registry exposes its metrics two ways: WritePrometheus emits the
// Prometheus text exposition format (the /metrics HTTP handler —
// Registry implements http.Handler), and SnapshotJSON returns the same
// data as a JSON-marshalable map (the wire protocol's metrics op).
//
// Registration is explicit and up-front: callers register every metric
// they will touch before the hot path starts, so the fast operations
// never consult the registry. Labeled families are registered one
// label-set at a time (Counter("x_total", `op="get"`, ...)); families
// with label sets unknown until scrape time use MultiGaugeFunc.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// HistBuckets is the fixed bucket count of every Histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i), with bucket 0 holding exactly v == 0 and the last
// bucket additionally absorbing everything past 2^(HistBuckets-2).
// 40 buckets cover 0 .. ~5.5e11 exactly — nanosecond latencies up to
// ~9 minutes, byte sizes up to half a terabyte — in one cache line
// pair of fixed storage.
const HistBuckets = 40

// Histogram is a log₂-bucketed histogram over uint64 observations
// (typically nanoseconds or bytes). Observe is lock-free and
// allocation-free: one bits.Len64, three atomic adds into fixed
// storage.
//
// Concurrent Observe/Snapshot interleavings may momentarily disagree
// between count, sum, and the buckets (each is independently atomic);
// the drift is bounded by the number of in-flight observations and
// irrelevant for monitoring.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// BucketBound returns bucket i's inclusive upper bound: 0 for bucket 0,
// 2^i - 1 otherwise. The last bucket's nominal bound is returned even
// though it also absorbs larger values (+Inf in the Prometheus output).
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// HistogramSnapshot is a point-in-time copy of a histogram, also the
// JSON payload shape (buckets are per-bucket counts, not cumulative).
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]uint64, HistBuckets)}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Kind classifies a registry entry for the TYPE exposition line.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

func (k Kind) String() string { return kindNames[k] }

// entry is one registered metric: a concrete instrument, or a function
// sampled at scrape time.
type entry struct {
	family string // metric family name, e.g. "dise_pool_get_total"
	labels string // label body without braces, e.g. `result="hit"`; "" for none
	help   string
	kind   Kind

	counter   *Counter
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() int64
	// multiFn emits a whole label set at scrape time (label body -> value),
	// for families whose labels are not known at registration.
	multiFn func() map[string]int64
}

// Registry is a named collection of metrics. Registration takes a lock;
// the registered instruments themselves are lock-free. A zero Registry
// is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	entries  []*entry
	families map[string]Kind // family name -> kind, for conflict checks
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]Kind)}
}

// register validates and appends e. Family/label duplicates and
// cross-kind family reuse panic: both are registration-time programming
// errors, and failing loudly at startup beats silently corrupt scrape
// output.
func (r *Registry) register(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.families[e.family]; ok {
		if k != e.kind {
			panic(fmt.Sprintf("obs: family %q registered as both %v and %v", e.family, k, e.kind))
		}
		for _, x := range r.entries {
			if x.family == e.family && x.labels == e.labels && x.multiFn == nil && e.multiFn == nil {
				panic(fmt.Sprintf("obs: duplicate metric %s{%s}", e.family, e.labels))
			}
		}
	} else {
		r.families[e.family] = e.kind
	}
	r.entries = append(r.entries, e)
}

// Counter registers and returns a counter. labels is the label body
// without braces (e.g. `result="hit"`), or "" for an unlabeled metric.
func (r *Registry) Counter(family, labels, help string) *Counter {
	c := &Counter{}
	r.register(&entry{family: family, labels: labels, help: help, kind: KindCounter, counter: c})
	return c
}

// Histogram registers and returns a histogram.
func (r *Registry) Histogram(family, labels, help string) *Histogram {
	h := &Histogram{}
	r.register(&entry{family: family, labels: labels, help: help, kind: KindHistogram, hist: h})
	return h
}

// CounterFunc registers a counter sampled by calling f at scrape time —
// for monotonic values a subsystem already maintains (pool statistics),
// so the hot path is not instrumented twice.
func (r *Registry) CounterFunc(family, labels, help string, f func() uint64) {
	r.register(&entry{family: family, labels: labels, help: help, kind: KindCounter, counterFn: f})
}

// GaugeFunc registers a gauge sampled by calling f at scrape time.
func (r *Registry) GaugeFunc(family, labels, help string, f func() int64) {
	r.register(&entry{family: family, labels: labels, help: help, kind: KindGauge, gaugeFn: f})
}

// MultiGaugeFunc registers a gauge family whose label sets are produced
// at scrape time: f returns label body -> value (e.g.
// `preset="default"` -> 3), emitted in sorted label order.
func (r *Registry) MultiGaugeFunc(family, help string, f func() map[string]int64) {
	r.register(&entry{family: family, help: help, kind: KindGauge, multiFn: f})
}

// snapshotEntries copies the entry list so scraping does not hold the
// registration lock across user callbacks.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// WritePrometheus emits every registered metric in the Prometheus text
// exposition format, families in registration order, HELP/TYPE once per
// family. Histograms emit cumulative le buckets on the raw observed
// unit (the family name carries the unit suffix, e.g. _ns, _bytes).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	seen := make(map[string]bool)
	for _, e := range r.snapshotEntries() {
		if !seen[e.family] {
			seen[e.family] = true
			if e.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", e.family, e.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.family, e.kind)
		}
		switch {
		case e.counter != nil:
			writeSample(&b, e.family, e.labels, float64(e.counter.Load()))
		case e.counterFn != nil:
			writeSample(&b, e.family, e.labels, float64(e.counterFn()))
		case e.gaugeFn != nil:
			writeSample(&b, e.family, e.labels, float64(e.gaugeFn()))
		case e.multiFn != nil:
			samples := e.multiFn()
			keys := make([]string, 0, len(samples))
			for k := range samples {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				writeSample(&b, e.family, k, float64(samples[k]))
			}
		case e.hist != nil:
			writeHistogram(&b, e.family, e.labels, e.hist.Snapshot())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one "name{labels} value" line.
func writeSample(b *strings.Builder, family, labels string, v float64) {
	b.WriteString(family)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	fmt.Fprintf(b, " %g\n", v)
}

// writeHistogram emits the cumulative _bucket/_sum/_count triplet.
// Empty buckets are elided (except the mandatory +Inf) to keep the
// exposition compact; cumulative counts stay correct because le buckets
// are cumulative by definition.
func writeHistogram(b *strings.Builder, family, labels string, s HistogramSnapshot) {
	cum := uint64(0)
	for i, n := range s.Buckets {
		cum += n
		if n == 0 {
			continue
		}
		le := fmt.Sprintf(`le="%d"`, BucketBound(i))
		if labels != "" {
			le = labels + "," + le
		}
		writeSample(b, family+"_bucket", le, float64(cum))
	}
	inf := `le="+Inf"`
	if labels != "" {
		inf = labels + "," + inf
	}
	writeSample(b, family+"_bucket", inf, float64(s.Count))
	writeSample(b, family+"_sum", labels, float64(s.Sum))
	writeSample(b, family+"_count", labels, float64(s.Count))
}

// ServeHTTP serves WritePrometheus — mount the registry at /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// SnapshotJSON returns every metric as a JSON-marshalable map: counters
// and gauges as numbers, histograms as HistogramSnapshot. Keys are
// "family" or "family{labels}".
func (r *Registry) SnapshotJSON() map[string]any {
	out := make(map[string]any)
	key := func(family, labels string) string {
		if labels == "" {
			return family
		}
		return family + "{" + labels + "}"
	}
	for _, e := range r.snapshotEntries() {
		switch {
		case e.counter != nil:
			out[key(e.family, e.labels)] = e.counter.Load()
		case e.counterFn != nil:
			out[key(e.family, e.labels)] = e.counterFn()
		case e.gaugeFn != nil:
			out[key(e.family, e.labels)] = e.gaugeFn()
		case e.multiFn != nil:
			for k, v := range e.multiFn() {
				out[key(e.family, k)] = v
			}
		case e.hist != nil:
			out[key(e.family, e.labels)] = e.hist.Snapshot()
		}
	}
	return out
}
