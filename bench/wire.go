package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// wireServer is an in-process debug service on a loopback TCP port,
// with the default configuration (Workers = GOMAXPROCS).
type wireServer struct {
	srv  *serve.Server
	ln   net.Listener
	done chan struct{}
}

func startServer() (*wireServer, error) {
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ws := &wireServer{srv: srv, ln: ln, done: make(chan struct{})}
	go func() {
		defer close(ws.done)
		_ = ws.srv.Serve(ln) // returns once stop closes the listener
	}()
	return ws, nil
}

func (ws *wireServer) stop() {
	ws.ln.Close()
	<-ws.done
	ws.srv.Close()
}

// frame is one line from the server: a response, or (with Event set) a
// pushed event frame.
type frame struct {
	serve.Response
	Event *serve.Event `json:"event"`
}

// client is one protocol connection.
type client struct {
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	pushed []frame // event frames that arrived while awaiting a response
}

func dial(ws *wireServer) (*client, error) {
	conn, err := net.Dial("tcp", ws.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriterSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// send writes requests without waiting for their responses.
func (c *client) send(reqs ...*serve.Request) error {
	enc := json.NewEncoder(c.w)
	for _, q := range reqs {
		if err := enc.Encode(q); err != nil {
			return err
		}
	}
	return c.w.Flush()
}

// next reads one line from the server.
func (c *client) next() (frame, error) {
	var f frame
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return f, err
	}
	err = json.Unmarshal(line, &f)
	return f, err
}

// response reads up to the next response, keeping pushed frames.
func (c *client) response() (frame, error) {
	for {
		f, err := c.next()
		if err != nil || f.Event == nil {
			return f, err
		}
		c.pushed = append(c.pushed, f)
	}
}

// call sends one request and waits for its response, timing the round
// trip under the request's op.
func (c *client) call(rec *recorder, parent *span, q *serve.Request) (frame, error) {
	sp := rec.tr.start(q.Op, parent)
	t0 := time.Now()
	err := c.send(q)
	var f frame
	if err == nil {
		f, err = c.response()
	}
	rec.wireOp(q.Op, time.Since(t0))
	rec.tr.finish(sp)
	if err == nil && !f.OK {
		err = fmt.Errorf("%s: %s (code %q)", q.Op, f.Err, f.Code)
	}
	return f, err
}

// command issues one debugger command — one request, or a resume and
// the wait for its stop — and records it as one op.
func (c *client) command(rec *recorder, parent *span, reqs ...*serve.Request) ([]frame, error) {
	sp := rec.tr.start("cmd."+reqs[0].Op, parent)
	defer rec.tr.finish(sp)
	t0 := time.Now()
	out := make([]frame, 0, len(reqs))
	for _, q := range reqs {
		f, err := c.call(rec, sp, q)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	rec.op(time.Since(t0))
	return out, nil
}

// statsOf renders library statistics the way the stats wire op does.
func statsOf(st pipeline.Stats, tr dise.TransitionStats) serve.StatsJSON {
	return serve.StatsJSON{
		Cycles: st.Cycles, AppInsts: st.AppInsts, DiseUops: st.DiseUops, FuncInsts: st.FuncInsts,
		IPC: st.IPC(), User: tr.User, SpuriousAddr: tr.SpuriousAddr, SpuriousValue: tr.SpuriousValue,
		SpuriousPred: tr.SpuriousPred, TrapStalls: st.TrapStallCycles,
		UopHits: st.UopHits, UopResolves: st.UopResolves, UopInvalidations: st.UopInvalidations,
		UopReuse: st.UopReuseRate(),
	}
}

func statsLine(s *serve.StatsJSON) string {
	return fmt.Sprintf("cycles=%d app_insts=%d dise_uops=%d func_insts=%d user=%d spurious=%d/%d/%d trap_stalls=%d uops=%d/%d/%d",
		s.Cycles, s.AppInsts, s.DiseUops, s.FuncInsts, s.User, s.SpuriousAddr, s.SpuriousValue,
		s.SpuriousPred, s.TrapStalls, s.UopHits, s.UopResolves, s.UopInvalidations)
}

// sessTrace is one session's scheduling timeline from the trace op,
// with the client's send times of the resumes that enqueued it.
type sessTrace struct {
	Session uint64           `json:"session"`
	Sends   []int64          `json:"send_ns"` // Unix ns, oldest first
	Events  []obs.TraceEvent `json:"events"`
}

// serveLayerMetrics derives the serve layer's per-layer metrics from the
// traced phase's trace and metrics snapshots, and writes the snapshots
// (the first 64 session traces) to dir.
func serveLayerMetrics(dir string, traces []sessTrace, m0, m1 map[string]any, out map[string]float64) {
	schedMetrics(traces, out)
	serveMetrics(m0, m1, out)
	if err := writeJSON(dir, "serve_trace.json", traces[:min(len(traces), 64)]); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing serve_trace.json:", err)
	}
	if err := writeJSON(dir, "serve_metrics.json", []map[string]any{m0, m1}); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing serve_metrics.json:", err)
	}
}

// schedMetrics derives the scheduler metrics from session traces:
// quantum lengths, queue waits (enqueue or requeue to quantum start),
// and admit lag (client send to enqueue).
func schedMetrics(traces []sessTrace, out map[string]float64) {
	var quantum, wait, lag samples
	for _, t := range traces {
		var enqueues []int64
		var last obs.TraceEvent
		for i, ev := range t.Events {
			switch ev.Kind {
			case serve.TraceEnqueue:
				enqueues = append(enqueues, ev.TimeNs)
			case serve.TraceQEnd:
				quantum = append(quantum, float64(ev.DurNs)/1e6)
			case serve.TraceQStart:
				if i > 0 && (last.Kind == serve.TraceEnqueue || last.Kind == serve.TraceQEnd) {
					wait = append(wait, float64(ev.TimeNs-last.TimeNs)/1e6)
				}
			}
			last = ev
		}
		// Every send enqueues once; the ring may have dropped the oldest
		// enqueues, so pair from the newest.
		for k := 1; k <= min(len(enqueues), len(t.Sends)); k++ {
			lag = append(lag, float64(enqueues[len(enqueues)-k]-t.Sends[len(t.Sends)-k])/1e6)
		}
	}
	out["serve.quantum.p50_ms"], out["serve.quantum.p99_ms"] = quantum.quantile(0.5), quantum.quantile(0.99)
	out["serve.queue_wait.p50_ms"], out["serve.queue_wait.p99_ms"] = wait.quantile(0.5), wait.quantile(0.99)
	out["serve.admit_lag.p50_ms"], out["serve.admit_lag.p99_ms"] = lag.quantile(0.5), lag.quantile(0.99)
}

// serveMetrics derives pool and server-side op metrics from metrics-op
// snapshots taken at the start and end of the traced phase.
func serveMetrics(m0, m1 map[string]any, out map[string]float64) {
	num := func(m map[string]any, k string) float64 { v, _ := m[k].(float64); return v }
	delta := func(k string) float64 { return num(m1, k) - num(m0, k) }
	hit, miss := delta(`dise_pool_get_total{result="hit"}`), delta(`dise_pool_get_total{result="miss"}`)
	if hit+miss > 0 {
		out["serve.pool_hit_ratio"] = hit / (hit + miss)
	}
	hist := func(m map[string]any, k, f string) float64 { h, _ := m[k].(map[string]any); return num(h, f) }
	for _, op := range wireOps {
		k := `dise_wire_op_latency_ns{op="` + op + `"}`
		if n := hist(m1, k, "count") - hist(m0, k, "count"); n > 0 {
			out["serve.srv_op."+op+".mean_us"] = (hist(m1, k, "sum") - hist(m0, k, "sum")) / n / 1e3
		}
	}
}

// metricsSnapshot fetches the server's metrics registry over the wire.
func metricsSnapshot(c *client, rec *recorder) (map[string]any, error) {
	f, err := c.call(rec, nil, &serve.Request{Op: "metrics"})
	return f.Metrics, err
}

// sampleIndexes picks n of the given indexes with the seed's generator.
func sampleIndexes(cfg *config, idx []int, n int) []int {
	rng := cfg.rng(3)
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx[:min(n, len(idx))]
}
