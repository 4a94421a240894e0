package serve

import (
	"repro/internal/machine"
	"repro/internal/obs"
)

// Trace event kinds recorded in each session's scheduling trace ring
// (the trace wire op's timeline). The ring answers "why was my session
// slow": every quantum's wall-clock duration and instructions retired,
// plus the scheduling decisions around it.
const (
	TraceEnqueue    = "enqueue"       // admitted to the run queue (user resume)
	TraceQStart     = "quantum-start" // a worker began a quantum
	TraceQEnd       = "quantum-end"   // the quantum finished (dur_ns, insts)
	TracePark       = "park"          // parked off the queue (note: shed|drain|backpressure)
	TraceCheckpoint = "checkpoint"    // a checkpoint was captured (dur_ns)
	TraceFault      = "fault"         // the quantum panicked (note: error)
	TraceRecovery   = "recovery"      // rebuilt from the checkpoint (quantum: generation)
)

// wireOps is every protocol op, pre-registering one latency histogram
// per op so the request path never consults the registry.
var wireOps = []string{
	"ping", "list", "stats", "metrics", "create", "attach", "watch", "break",
	"continue", "step", "wait", "events", "subscribe", "unsubscribe",
	"read", "snapshot", "restore", "trace", "close",
}

// serveMetrics is the server's observability surface: every instrument
// lives in one obs.Registry (exposed at /metrics and by the metrics
// wire op) and doubles as the ServerStats source, so the wire stats
// payload and the Prometheus exposition can never disagree. The
// instruments the hot path touches are lock-free atomics; everything
// sampled under a lock (runnable, queue length, per-preset breakdowns)
// is registered as a scrape-time func instead.
type serveMetrics struct {
	reg *obs.Registry

	// Lifecycle and scheduling counters (hot path: atomic adds).
	sessionsCreated *obs.Counter
	sessionsClosed  *obs.Counter
	quanta          *obs.Counter
	shed            *obs.Counter
	slow            *obs.Counter
	bpStalls        *obs.Counter
	evDropped       *obs.Counter
	faults          *obs.Counter
	recoveries      *obs.Counter
	requestPanics   *obs.Counter

	// Latency distributions (hot path: three atomic adds each).
	quantumNs    *obs.Histogram
	checkpointNs *obs.Histogram
	snapshotB    *obs.Histogram

	// Wire-op latency per op type; ops outside wireOps (unknown op
	// strings) fall into other.
	wireOp      map[string]*obs.Histogram
	wireOpOther *obs.Histogram
}

// newServeMetrics builds the registry and registers every instrument.
func newServeMetrics() *serveMetrics {
	reg := obs.NewRegistry()
	sm := &serveMetrics{
		reg:             reg,
		sessionsCreated: reg.Counter("dise_sessions_created_total", "", "sessions opened"),
		sessionsClosed:  reg.Counter("dise_sessions_closed_total", "", "sessions closed"),
		quanta:          reg.Counter("dise_quanta_total", "", "scheduling quanta completed"),
		shed:            reg.Counter("dise_shed_total", "", "admissions rejected by load shedding"),
		slow:            reg.Counter("dise_slow_consumers_total", "", "push subscriptions severed for falling behind"),
		bpStalls:        reg.Counter("dise_backpressure_stalls_total", "", "quantum boundaries parked for a lagging backpressure subscriber"),
		evDropped:       reg.Counter("dise_events_dropped_total", "", "pull-queue events discarded at EventBuffer"),
		faults:          reg.Counter("dise_faults_total", "", "quanta that panicked"),
		recoveries:      reg.Counter("dise_recoveries_total", "", "sessions rebuilt from a checkpoint"),
		requestPanics:   reg.Counter("dise_request_panics_total", "", "wire requests that panicked and failed with code internal"),
		quantumNs:       reg.Histogram("dise_quantum_latency_ns", "", "wall-clock duration of one completed scheduling quantum"),
		checkpointNs:    reg.Histogram("dise_checkpoint_latency_ns", "", "wall-clock duration of one checkpoint capture"),
		snapshotB:       reg.Histogram("dise_snapshot_bytes", "", "encoded size of explicit snapshots (snapshot wire op)"),
		wireOp:          make(map[string]*obs.Histogram, len(wireOps)),
	}
	for _, op := range wireOps {
		sm.wireOp[op] = reg.Histogram("dise_wire_op_latency_ns", `op="`+op+`"`, "wire protocol request latency by op")
	}
	sm.wireOpOther = reg.Histogram("dise_wire_op_latency_ns", `op="other"`, "wire protocol request latency by op")
	return sm
}

// observeWireOp records one request's latency under its op label. The
// map is read-only after newServeMetrics, so the lookup is lock-free.
func (sm *serveMetrics) observeWireOp(op string, durNs int64) {
	h, ok := sm.wireOp[op]
	if !ok {
		h = sm.wireOpOther
	}
	h.Observe(uint64(durNs))
}

// registerServerFuncs registers the scrape-time sampled metrics that
// need the live server: pool activity (the PoolSet already counts it —
// sampling avoids double instrumentation), queue state, and the
// per-preset session and pool-idle breakdowns.
func (sm *serveMetrics) registerServerFuncs(srv *Server) {
	reg := sm.reg
	poolStat := func(pick func(PoolStats) uint64) func() uint64 {
		return func() uint64 { return pick(srv.pools.Stats()) }
	}
	reg.CounterFunc("dise_pool_get_total", `result="miss"`, "pool Gets that built a machine",
		poolStat(func(s PoolStats) uint64 { return s.Created }))
	reg.CounterFunc("dise_pool_get_total", `result="hit"`, "pool Gets served from the idle list",
		poolStat(func(s PoolStats) uint64 { return s.Reused }))
	reg.CounterFunc("dise_pool_put_total", `result="parked"`, "pool Puts that recycled the machine",
		poolStat(func(s PoolStats) uint64 { return s.Recycled }))
	reg.CounterFunc("dise_pool_put_total", `result="dropped"`, "pool Puts that discarded the machine",
		poolStat(func(s PoolStats) uint64 { return s.Dropped }))
	reg.GaugeFunc("dise_pool_idle", "", "machines parked in the pool across all configurations",
		func() int64 { return int64(srv.pools.Idle()) })
	reg.GaugeFunc("dise_runnable", "", "sessions admitted to run right now", func() int64 {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return int64(srv.runnable)
	})
	reg.GaugeFunc("dise_queue_len", "", "run-queue length right now", func() int64 {
		return int64(len(srv.runq))
	})
	reg.GaugeFunc("dise_sessions_open", "", "sessions in the server table right now", func() int64 {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return int64(len(srv.sessions))
	})
	reg.MultiGaugeFunc("dise_sessions", "open sessions by machine preset", func() map[string]int64 {
		out := make(map[string]int64)
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, s := range srv.sessions {
			out[`preset="`+presetLabel(s.preset)+`"`]++
		}
		return out
	})
	reg.MultiGaugeFunc("dise_pool_idle_preset", "parked machines by machine preset", func() map[string]int64 {
		out := make(map[string]int64)
		for name, n := range srv.poolIdleByPreset() {
			out[`preset="`+name+`"`] = int64(n)
		}
		return out
	})
}

// presetLabel names a session or pool configuration for per-preset
// breakdowns: the preset it equals, or "custom" for a configuration that
// equals none.
func presetLabel(preset string) string {
	if preset == "" {
		return "custom"
	}
	return preset
}

// poolIdleByPreset maps the pool's per-configuration idle counts to
// preset names (the per-preset breakdown in ServerStats and /metrics).
// Configurations that equal no preset merge under "custom".
func (srv *Server) poolIdleByPreset() map[string]int {
	idle := srv.pools.IdleByConfig()
	if len(idle) == 0 {
		return nil
	}
	out := make(map[string]int, len(idle))
	for cfg, n := range idle {
		out[presetLabel(machine.PresetName(cfg))] += n
	}
	return out
}

// Metrics returns the server's metrics registry — mount it at /metrics
// (obs.Registry implements http.Handler) or scrape it programmatically.
func (srv *Server) Metrics() *obs.Registry { return srv.met.reg }
