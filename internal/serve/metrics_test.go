package serve

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/debug"
	"repro/internal/machine"
)

// scrapeProm renders the server's registry in Prometheus text format and
// parses it back into sample -> value, keyed exactly as exposed
// (`family` or `family{labels}`, plus `_bucket`/`_sum`/`_count` series).
func scrapeProm(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	var b strings.Builder
	srv.Metrics().WritePrometheus(&b)
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndToEnd runs real sessions and holds the /metrics
// exposition to the server's own accounting: the quantum latency
// histogram must count exactly ServerStats.QuantaRun, and the lifecycle,
// checkpoint, pool, and shed families must all be present.
func TestMetricsEndToEnd(t *testing.T) {
	const sessions = 5
	srv := newTestServer(t, Config{Workers: 2, Quantum: 8, CheckpointEvery: 2})
	for i := 0; i < sessions; i++ {
		s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Continue(0); err != nil {
			t.Fatal(err)
		}
		if st := s.Wait(); st != StateHalted {
			t.Fatalf("session %d ended %v, want halted", i, st)
		}
	}

	// Wait() returns when the quantum flips the session state; the worker
	// records the quantum's latency just after. Poll until the histogram
	// has caught up with the counter both share.
	var (
		st      ServerStats
		samples map[string]float64
	)
	deadline := time.Now().Add(2 * time.Second)
	for {
		st = srv.Stats()
		samples = scrapeProm(t, srv)
		if c := samples["dise_quantum_latency_ns_count"]; c > 0 && c == float64(st.QuantaRun) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quantum histogram count %v never matched QuantaRun %d",
				samples["dise_quantum_latency_ns_count"], st.QuantaRun)
		}
		time.Sleep(time.Millisecond)
	}

	if got := samples["dise_sessions_created_total"]; got != sessions {
		t.Errorf("dise_sessions_created_total = %v, want %d", got, sessions)
	}
	if got := samples["dise_quanta_total"]; got != float64(st.QuantaRun) {
		t.Errorf("dise_quanta_total = %v, want %d", got, st.QuantaRun)
	}
	if got := samples["dise_checkpoint_latency_ns_count"]; got < sessions {
		t.Errorf("dise_checkpoint_latency_ns_count = %v, want >= %d (one initial checkpoint per session)",
			got, sessions)
	}
	if got := samples[`dise_pool_get_total{result="miss"}`]; got < 1 {
		t.Errorf(`dise_pool_get_total{result="miss"} = %v, want >= 1`, got)
	}
	// Quiet counters still expose their families at zero.
	for _, name := range []string{
		"dise_shed_total", "dise_faults_total", "dise_recoveries_total",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	// The histogram exposition is cumulative and ends at +Inf == _count.
	inf := samples[`dise_quantum_latency_ns_bucket{le="+Inf"}`]
	if inf != samples["dise_quantum_latency_ns_count"] {
		t.Errorf("+Inf bucket %v != count %v", inf, samples["dise_quantum_latency_ns_count"])
	}
	// Gauges sample live state: everything halted, nothing runnable.
	if got := samples["dise_runnable"]; got != 0 {
		t.Errorf("dise_runnable = %v, want 0 after halt", got)
	}
	if got := samples["dise_sessions_open"]; got != sessions {
		t.Errorf("dise_sessions_open = %v, want %d", got, sessions)
	}
}

// TestMetricsWireOp exercises the in-band scrape: the metrics op returns
// the registry as JSON, including the per-op wire latency histogram for
// ops this very connection already ran.
func TestMetricsWireOp(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 500})
	c := newProtoClient(t, srv)

	c.ok(Request{Op: "ping"})
	resp := c.ok(Request{Op: "metrics"})
	if resp.Metrics == nil {
		t.Fatal("metrics op returned no metrics payload")
	}
	if _, ok := resp.Metrics["dise_sessions_created_total"]; !ok {
		t.Error("metrics payload missing dise_sessions_created_total")
	}
	h, ok := resp.Metrics[`dise_wire_op_latency_ns{op="ping"}`].(map[string]any)
	if !ok {
		t.Fatalf(`metrics payload missing histogram dise_wire_op_latency_ns{op="ping"}`)
	}
	if n, _ := h["count"].(float64); n < 1 {
		t.Errorf("ping latency count = %v, want >= 1", h["count"])
	}
}

// TestTraceWireOp runs a session over the wire and pulls its scheduling
// timeline: enqueue first, at least one quantum-end carrying
// instructions retired, sequence numbers strictly increasing.
func TestTraceWireOp(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 500})
	c := newProtoClient(t, srv)

	created := c.ok(Request{Op: "create", Program: countdownProg})
	c.ok(Request{Op: "continue", Session: created.Session})
	c.ok(Request{Op: "wait", Session: created.Session})

	resp := c.ok(Request{Op: "trace", Session: created.Session})
	if len(resp.Trace) == 0 {
		t.Fatal("trace op returned empty timeline")
	}
	if resp.Trace[0].Kind != TraceEnqueue {
		t.Errorf("first trace event %q, want %q", resp.Trace[0].Kind, TraceEnqueue)
	}
	var insts uint64
	for i, ev := range resp.Trace {
		if i > 0 && ev.Seq <= resp.Trace[i-1].Seq {
			t.Errorf("trace seq not increasing at %d: %d after %d", i, ev.Seq, resp.Trace[i-1].Seq)
		}
		if ev.Kind == TraceQEnd {
			insts += ev.Insts
		}
	}
	if insts == 0 {
		t.Error("no quantum-end event carried instructions retired")
	}
}

// TestTraceDisabled: a negative TraceDepth turns the ring off — the
// trace op still succeeds but returns an empty timeline.
func TestTraceDisabled(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 500, TraceDepth: -1})
	s, err := srv.CreateSource(countdownProg, debug.DefaultOptions(debug.BackendDise))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Continue(0); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	if tr := s.Trace(); len(tr) != 0 {
		t.Errorf("disabled trace ring returned %d events", len(tr))
	}
}

// TestStatsPoolByConfig: closing a session parks its machine, and the
// stats wire payload breaks the idle pool down by preset name.
func TestStatsPoolByConfig(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 500})
	c := newProtoClient(t, srv)

	created := c.ok(Request{Op: "create", Program: countdownProg})
	c.ok(Request{Op: "continue", Session: created.Session})
	c.ok(Request{Op: "wait", Session: created.Session})
	c.ok(Request{Op: "close", Session: created.Session})

	resp := c.ok(Request{Op: "stats"})
	if resp.Server == nil {
		t.Fatal("stats op returned no server stats")
	}
	if got := resp.Server.PoolByConfig["default"]; got < 1 {
		t.Errorf(`PoolByConfig["default"] = %d, want >= 1 (got %v)`, got, resp.Server.PoolByConfig)
	}
}

// TestSessionPresetFromMachineConfig: a session is named after the preset
// its machine configuration equals, whether or not the request named one,
// and the attach echo and both per-preset breakdowns read that one name;
// a configuration equal to no preset counts as "custom".
func TestSessionPresetFromMachineConfig(t *testing.T) {
	small, _ := machine.PresetConfig("small-cache")
	custom := small
	custom.Cache.TLBEntries = 32
	srv := newTestServer(t, Config{Workers: 1, Quantum: 1000})
	opts := debug.DefaultOptions(debug.BackendDise)
	ss, err := srv.CreateSourceWith(countdownProg, opts, SessionConfig{Machine: small})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := srv.CreateSourceWith(countdownProg, opts, SessionConfig{Machine: custom})
	if err != nil {
		t.Fatal(err)
	}
	if _, preset := ss.MachineConfig(); preset != "small-cache" {
		t.Errorf("small-cache session preset = %q", preset)
	}
	if _, preset := sc.MachineConfig(); preset != "" {
		t.Errorf("custom session preset = %q, want none", preset)
	}
	c := newProtoClient(t, srv)
	if resp := c.ok(Request{Op: "attach", Session: ss.ID}); resp.Machine != "small-cache" {
		t.Errorf("attach echo = %q, want small-cache", resp.Machine)
	}
	samples := scrapeProm(t, srv)
	for _, label := range []string{"small-cache", "custom"} {
		if got := samples[`dise_sessions{preset="`+label+`"}`]; got != 1 {
			t.Errorf("dise_sessions{preset=%q} = %v, want 1", label, got)
		}
	}
	ss.Close()
	sc.Close()
	if got := srv.Stats().PoolByConfig; got["small-cache"] != 1 || got["custom"] != 1 {
		t.Errorf("pool_by_config = %v, want small-cache and custom 1 each", got)
	}
}
