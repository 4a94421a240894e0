package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	rtdebug "runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/debug"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// The wire protocol is line-delimited JSON: one Request per line in, one
// Response per line out, in request order. By default events queue per
// session and are returned by the wait and events ops, so a connection is
// a plain request/response stream that works identically over TCP and
// stdio, and a session survives its connection (reattach with the attach
// op). A minimal session:
//
//	{"op":"create","program":". . ."}            -> {"ok":true,"session":1,...}
//	{"op":"break","session":1,"sym":"loop"}      -> {"ok":true}
//	{"op":"continue","session":1}                -> {"ok":true,"state":"running"}
//	{"op":"wait","session":1}                    -> {"ok":true,"state":"idle","events":[{"kind":"break","pc":...}]}
//	{"op":"stats","session":1}                   -> {"ok":true,"stats":{...}}
//	{"op":"close","session":1}                   -> {"ok":true}
//
// The subscribe op upgrades the connection to push: after its response,
// the session's events are additionally delivered as they fire, as
// standalone frames interleaved between responses at line granularity:
//
//	{"op":"subscribe","session":1}               -> {"ok":true}
//	                                             <- {"session":1,"event":{"kind":"watch",...}}
//
// A connection has one writer goroutine: it writes the responses from a
// bounded outbox and pushes the frames its subscriptions' queues hold
// itself, so pushed frames never corrupt request/response framing. An
// ordinary subscriber that stops reading falls its depth behind and is
// disconnected (slow consumer), leaving its session intact and
// attachable; a backpressure subscriber holds its session instead.
// Blocking ops (wait) block the connection; clients wanting concurrent
// sessions open one connection per session, multiplex with seq, or
// subscribe.
//
// The snapshot op checkpoints an idle session and reports the encoded
// snapshot's size and content hash; the restore op rewinds the session to
// its last checkpoint (periodic, drain-time, or snapshot-created). On
// deadline-capable transports the server arms Config.ReadTimeout /
// Config.WriteTimeout around each read and write, so a wedged or idle
// client is severed — its sessions stay attachable, like the slow-consumer
// path.
//
// Failures carry a machine-readable code alongside the message when one
// applies: "overloaded" (the continue/step was past Config.QueueDepth),
// "running", "halted", "closed", "no-server", "draining" (the server is
// shutting down gracefully), "errored" (the session faulted beyond
// recovery), "no-checkpoint" (restore with nothing to rewind to),
// "internal" (the request panicked; the server logged it and keeps
// serving).

// Request is one protocol request.
type Request struct {
	// Seq is echoed verbatim in the response for client-side matching.
	Seq uint64 `json:"seq,omitempty"`
	// Op selects the operation: create, attach, list, watch, break,
	// continue, step, wait, events, subscribe, unsubscribe, stats,
	// metrics, trace, read, snapshot, restore, close, ping.
	Op string `json:"op"`
	// Session addresses every op except create, list, ping, metrics, and
	// the server-wide stats form.
	Session uint64 `json:"session,omitempty"`

	// create: assembly source, back end name (dise|vm|hw|step|rewrite;
	// default dise) and machine preset (default|small-cache|big-l2|
	// no-bpred|narrow-core; default "default").
	Program string `json:"program,omitempty"`
	Backend string `json:"backend,omitempty"`
	Machine string `json:"machine,omitempty"`

	// watch: watched symbol/address, kind (scalar|indirect|range; default
	// scalar), size in bytes (default 8), range length, optional name and
	// condition. break: sym is the breakpoint PC.
	Sym    string    `json:"sym,omitempty"`
	Kind   string    `json:"kind,omitempty"`
	Name   string    `json:"name,omitempty"`
	Size   int       `json:"size,omitempty"`
	Length uint64    `json:"length,omitempty"`
	Cond   *CondSpec `json:"cond,omitempty"`

	// continue: instruction budget (0 = until halt/event). step: count.
	Budget uint64 `json:"budget,omitempty"`
	Count  uint64 `json:"count,omitempty"`

	// subscribe: per-subscription queue depth (0 = server default), and
	// the lossless backpressure mode — instead of severing the connection
	// when it falls behind, the session pauses at its next quantum
	// boundary until the subscriber catches up (tracing clients that must
	// not lose events).
	Depth        int  `json:"depth,omitempty"`
	Backpressure bool `json:"backpressure,omitempty"`

	// read: symbol or address of the quad to examine.
	Addr string `json:"addr,omitempty"`
}

// CondSpec is a JSON watchpoint/breakpoint condition: op is one of
// ==, !=, <, >; for conditional breakpoints sym names the scalar.
type CondSpec struct {
	Op    string `json:"op"`
	Value uint64 `json:"value"`
	Sym   string `json:"sym,omitempty"`
}

// StatsJSON is the stats op's per-session payload.
type StatsJSON struct {
	Cycles    uint64  `json:"cycles"`
	AppInsts  uint64  `json:"app_insts"`
	DiseUops  uint64  `json:"dise_uops"`
	FuncInsts uint64  `json:"func_insts"`
	IPC       float64 `json:"ipc"`

	User          uint64 `json:"user_transitions"`
	SpuriousAddr  uint64 `json:"spurious_addr"`
	SpuriousValue uint64 `json:"spurious_value"`
	SpuriousPred  uint64 `json:"spurious_pred"`
	TrapStalls    uint64 `json:"trap_stall_cycles"`

	// Decoded-uop dispatch amortization (see pipeline.Stats).
	UopHits          uint64  `json:"uop_hits"`
	UopResolves      uint64  `json:"uop_resolves"`
	UopInvalidations uint64  `json:"uop_invalidations"`
	UopReuse         float64 `json:"uop_reuse"`
}

func statsJSON(st pipeline.Stats, tr debug.TransitionStats) *StatsJSON {
	return &StatsJSON{
		Cycles:        st.Cycles,
		AppInsts:      st.AppInsts,
		DiseUops:      st.DiseUops,
		FuncInsts:     st.FuncInsts,
		IPC:           st.IPC(),
		User:          tr.User,
		SpuriousAddr:  tr.SpuriousAddr,
		SpuriousValue: tr.SpuriousValue,
		SpuriousPred:  tr.SpuriousPred,
		TrapStalls:    st.TrapStallCycles,

		UopHits:          st.UopHits,
		UopResolves:      st.UopResolves,
		UopInvalidations: st.UopInvalidations,
		UopReuse:         st.UopReuseRate(),
	}
}

// Response is one protocol response.
type Response struct {
	Seq      uint64       `json:"seq,omitempty"`
	OK       bool         `json:"ok"`
	Err      string       `json:"err,omitempty"`
	Code     string       `json:"code,omitempty"` // machine-readable failure class
	Session  uint64       `json:"session,omitempty"`
	State    string       `json:"state,omitempty"`
	Entry    uint64       `json:"entry,omitempty"`
	Machine  string       `json:"machine,omitempty"` // session's machine preset
	Events   []Event      `json:"events,omitempty"`
	Stats    *StatsJSON   `json:"stats,omitempty"`
	Server   *ServerStats `json:"server,omitempty"`
	Value    *uint64      `json:"value,omitempty"`
	Sessions []uint64     `json:"sessions,omitempty"`

	// snapshot: the encoded snapshot's size and SHA-256 content hash.
	SnapshotBytes int    `json:"snapshot_bytes,omitempty"`
	SnapshotHash  string `json:"snapshot_hash,omitempty"`

	// metrics: every registered metric (the same data /metrics exposes as
	// Prometheus text), counters and gauges as numbers, histograms as
	// {count, sum, buckets}.
	Metrics map[string]any `json:"metrics,omitempty"`
	// trace: the session's scheduling timeline, oldest first.
	Trace []obs.TraceEvent `json:"trace,omitempty"`

	// sub is the subscription a subscribe response starts; the writer
	// pushes it only after writing the response, so the response precedes
	// the first frame.
	sub *Subscription
}

// EventFrame is one asynchronously pushed event on a subscribed
// connection. Frames are distinguishable from responses by the "event"
// key (and the absence of "ok").
type EventFrame struct {
	Session uint64 `json:"session"`
	Event   *Event `json:"event"`
}

// ErrInternal fails a request that panicked on the request path.
var ErrInternal = errors.New("serve: internal error")

// errCode maps session/server errors to wire codes.
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrRunning):
		return "running"
	case errors.Is(err, ErrHalted):
		return "halted"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, ErrNoServer):
		return "no-server"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrErrored):
		return "errored"
	case errors.Is(err, ErrNoCheck):
		return "no-checkpoint"
	case errors.Is(err, ErrInternal):
		return "internal"
	}
	return ""
}

// protoConn is one protocol connection: a read loop (ServeConn itself)
// and a writer goroutine that writes responses and pushes the
// connection's subscriptions as event frames.
type protoConn struct {
	srv *Server
	rw  io.ReadWriter

	// outc carries *Response and *Subscription items in write order. For
	// a subscription the writer pushes its queued events, and keeps
	// pushing it on every wake while it is live.
	outc       chan any
	wake       chan struct{} // capacity 1, shared by the connection's subscriptions
	done       chan struct{} // closed once, on teardown or slow-consumer kill
	writerDone chan struct{} // closed when the writer goroutine exits
	stopOnce   sync.Once
	killOnce   sync.Once

	// ops counts requests handled, reported in the connection-close log
	// line, and subs maps a session id to its live subscription. Both
	// belong to the read-loop goroutine.
	ops  uint64
	subs map[uint64]*Subscription
}

// stop begins teardown: senders give up and the writer drains what the
// outbox already holds, then exits. The transport stays open so those
// last writes can land (graceful EOF path).
func (c *protoConn) stop() {
	c.stopOnce.Do(func() { close(c.done) })
}

// sever is the forceful teardown (slow consumer, write failure): stop,
// and close the transport when it can be closed (TCP), unblocking any
// pending read or write.
func (c *protoConn) sever() {
	c.stop()
	c.killOnce.Do(func() {
		if cl, ok := c.rw.(io.Closer); ok {
			cl.Close()
		}
	})
}

// send hands v to the writer goroutine, giving up on teardown.
func (c *protoConn) send(v any) {
	select {
	case c.outc <- v:
	case <-c.done:
	}
}

// unsubscribe cancels the session's subscription, if any, and hands it to
// the writer, which pushes the events it still holds ahead of anything
// sent later: an unsubscribe ack follows every frame of the subscription.
func (c *protoConn) unsubscribe(id uint64) {
	if sub := c.subs[id]; sub != nil {
		delete(c.subs, id)
		sub.Cancel()
		c.send(sub)
	}
}

// writer writes the outbox and pushes the live subscriptions onto the
// transport. On teardown it writes whatever the outbox still holds — a
// severed transport just errors the writes out — so a response enqueued
// right before EOF is not lost.
func (c *protoConn) writer() {
	defer close(c.writerDone)
	// On deadline-capable transports (TCP), each frame write is bounded by
	// Config.WriteTimeout: a client wedging the transport mid-write is
	// severed instead of pinning the writer goroutine forever.
	wd, _ := c.rw.(interface{ SetWriteDeadline(time.Time) error })
	enc := json.NewEncoder(c.rw)
	encode := func(v any) error {
		if wd != nil && c.srv.cfg.WriteTimeout > 0 {
			_ = wd.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		}
		return enc.Encode(v)
	}
	var live []*Subscription // pushed again on every wake
	// push writes sub's queued events as frames, keeping sub in live
	// while it has not ended.
	push := func(sub *Subscription) error {
		for {
			ev, ok, more := sub.take()
			if !ok {
				if more {
					live = append(live, sub)
				}
				return nil
			}
			if err := encode(&EventFrame{Session: sub.s.ID, Event: &ev}); err != nil {
				return err
			}
		}
	}
	write := func(v any) error {
		if r, ok := v.(*Response); ok {
			if err := encode(r); err != nil || r.sub == nil {
				return err
			}
			// A new subscription: the wake for events queued before it got
			// here may already be spent, so push it once straight away.
			v = r.sub
		}
		return push(v.(*Subscription))
	}
	for {
		var err error
		select {
		case v := <-c.outc:
			err = write(v)
		case <-c.wake:
			subs := live
			live = subs[:0] // refilled in place by push
			for _, sub := range subs {
				if err = push(sub); err != nil {
					break
				}
			}
			clear(subs[len(live):])
		case <-c.done:
			for {
				select {
				case v := <-c.outc:
					if write(v) != nil {
						return
					}
				default:
					return
				}
			}
		}
		if err != nil {
			c.sever()
			return
		}
	}
}

// remoteName labels a transport for the connection logs: its remote
// address when it has one (TCP), "local" otherwise (stdio, pipes).
func remoteName(rw io.ReadWriter) string {
	if ra, ok := rw.(interface{ RemoteAddr() net.Addr }); ok {
		if addr := ra.RemoteAddr(); addr != nil {
			return addr.String()
		}
	}
	return "local"
}

// ServeConn handles one protocol connection until EOF or a read error.
// Sessions created on the connection outlive it; close them explicitly
// or let Server.Close reap them. Subscriptions die with the connection,
// releasing any session a backpressure subscription had parked.
// With Config.Logger set, connection open and close are logged with the
// remote address and the number of ops the connection handled.
func (srv *Server) ServeConn(rw io.ReadWriter) error {
	c := &protoConn{
		srv:        srv,
		rw:         rw,
		outc:       make(chan any, srv.cfg.PushBuffer),
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
		subs:       make(map[uint64]*Subscription),
	}
	remote := remoteName(rw)
	srv.logger.Info("conn open", "remote", remote)
	go c.writer()
	defer func() {
		srv.logger.Info("conn close", "remote", remote, "ops", c.ops)
	}()
	defer func() {
		for _, sub := range c.subs {
			sub.Cancel()
		}
		c.stop()
		<-c.writerDone
	}()

	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20) // programs ride in requests
	// On deadline-capable transports, each wait for the next request line
	// is bounded by Config.ReadTimeout: an idle or wedged client is
	// severed (the Scan fails with a timeout), and its sessions remain
	// attachable — the same containment as the slow-consumer path.
	rd, _ := rw.(interface{ SetReadDeadline(time.Time) error })
	for {
		if rd != nil && srv.cfg.ReadTimeout > 0 {
			_ = rd.SetReadDeadline(time.Now().Add(srv.cfg.ReadTimeout))
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		c.ops++
		var req Request
		resp := Response{}
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			resp.Err = fmt.Sprintf("bad request: %v", err)
		} else {
			resp = srv.handle(c, &req)
		}
		c.send(&resp)
		select {
		case <-c.done:
			return nil // severed (slow consumer or write failure)
		default:
		}
	}
	return sc.Err()
}

// Serve accepts connections from l and serves each on its own goroutine
// until the listener fails (e.g. it was closed).
func (srv *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			_ = srv.ServeConn(conn)
		}()
	}
}

// handle executes one request, observing its latency under the op's
// label (blocking ops like wait record their full blocked time — the
// latency a client experienced, not just compute).
func (srv *Server) handle(c *protoConn, req *Request) Response {
	t0 := time.Now()
	resp, err := srv.handleGuarded(c, req)
	srv.met.observeWireOp(req.Op, int64(time.Since(t0)))
	resp.Seq = req.Seq
	if err != nil {
		resp.OK = false
		resp.Err = err.Error()
		resp.Code = errCode(err)
	} else {
		resp.OK = true
	}
	return resp
}

// handleGuarded is handleErr under panic isolation: client input that
// panics the request path fails only its own request, with ErrInternal,
// counted in dise_request_panics_total and logged with the stack.
func (srv *Server) handleGuarded(c *protoConn, req *Request) (resp Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			srv.met.requestPanics.Inc()
			srv.logger.Error("request panic", "op", req.Op, "session", req.Session,
				"panic", r, "stack", string(rtdebug.Stack()))
			resp, err = Response{}, fmt.Errorf("%w: %v", ErrInternal, r)
		}
	}()
	return srv.handleErr(c, req)
}

func (srv *Server) handleErr(c *protoConn, req *Request) (Response, error) {
	switch req.Op {
	case "ping":
		return Response{}, nil
	case "list":
		return Response{Sessions: srv.Sessions()}, nil
	case "stats":
		if req.Session == 0 {
			st := srv.Stats()
			return Response{Server: &st}, nil
		}
	case "metrics":
		// The full metric registry as JSON — the same data the /metrics
		// HTTP endpoint serves as Prometheus text.
		return Response{Metrics: srv.Metrics().SnapshotJSON()}, nil
	case "create":
		name := req.Backend
		if name == "" {
			name = "dise"
		}
		backend, ok := debug.ParseBackend(name)
		if !ok {
			return Response{}, fmt.Errorf("unknown backend %q", req.Backend)
		}
		var sc SessionConfig
		if req.Machine != "" {
			mcfg, ok := machine.PresetConfig(req.Machine)
			if !ok {
				return Response{}, fmt.Errorf("unknown machine preset %q (have %s)",
					req.Machine, strings.Join(machine.Presets(), ", "))
			}
			sc.Machine = mcfg
		}
		s, err := srv.CreateSourceWith(req.Program, debug.DefaultOptions(backend), sc)
		if err != nil {
			return Response{}, err
		}
		// Echo the session's preset, which may come from the server
		// default rather than the request.
		_, preset := s.MachineConfig()
		return Response{Session: s.ID, State: s.State().String(), Entry: s.Program().Entry, Machine: preset}, nil
	}

	// Every other op addresses a session.
	s, ok := srv.Attach(req.Session)
	if !ok {
		return Response{}, fmt.Errorf("no session %d", req.Session)
	}
	switch req.Op {
	case "attach":
		_, preset := s.MachineConfig()
		return Response{Session: s.ID, State: s.State().String(), Entry: s.Program().Entry, Machine: preset}, nil
	case "watch":
		w, err := s.watchpointFromRequest(req)
		if err != nil {
			return Response{}, err
		}
		return Response{}, s.Watch(w)
	case "break":
		b, err := s.breakpointFromRequest(req)
		if err != nil {
			return Response{}, err
		}
		return Response{}, s.Break(b)
	case "continue":
		if err := s.Continue(req.Budget); err != nil {
			return Response{State: s.State().String()}, err
		}
		return Response{State: StateRunning.String()}, nil
	case "step":
		if err := s.Step(req.Count); err != nil {
			return Response{State: s.State().String()}, err
		}
		return Response{State: StateRunning.String()}, nil
	case "wait":
		st := s.Wait()
		resp := Response{State: st.String(), Events: s.Events()}
		if st == StateErrored {
			if serr := s.Err(); serr != nil {
				// Surface the panic value with the errored wire code.
				return resp, fmt.Errorf("%w: %v", ErrErrored, serr)
			}
			return resp, ErrErrored
		}
		return resp, nil
	case "events":
		return Response{State: s.State().String(), Events: s.Events()}, nil
	case "subscribe":
		// Replacing a live subscription: cancel the old one before the new
		// one registers, so no event is ever teed to both (which would push
		// duplicate frames) and no stale frame trails this response.
		c.unsubscribe(s.ID)
		// Slow consumers lose the connection — unless they asked for
		// backpressure, in which case their session waits for them.
		sub := s.subscribe(SubscribeOptions{
			Depth:        req.Depth,
			OnDrop:       c.sever,
			Backpressure: req.Backpressure,
		}, c.wake)
		c.subs[s.ID] = sub
		return Response{Session: s.ID, State: s.State().String(), sub: sub}, nil
	case "unsubscribe":
		c.unsubscribe(s.ID) // queued frames precede the ack; none follow it
		return Response{Session: s.ID}, nil
	case "stats":
		st, tr := s.Stats()
		return Response{State: s.State().String(), Stats: statsJSON(st, tr)}, nil
	case "trace":
		// The session's scheduling timeline: why was this session slow —
		// quantum durations and instructions retired, parks, checkpoints,
		// faults, recoveries — oldest first, bounded by Config.TraceDepth.
		return Response{Session: s.ID, State: s.State().String(), Trace: s.Trace()}, nil
	case "read":
		addr, err := s.resolve(req.Addr)
		if err != nil {
			return Response{}, err
		}
		v, err := s.ReadQuad(addr)
		if err != nil {
			return Response{}, err
		}
		return Response{Value: &v}, nil
	case "snapshot":
		n, hash, err := s.SnapshotNow()
		if err != nil {
			return Response{State: s.State().String()}, err
		}
		return Response{Session: s.ID, State: s.State().String(), SnapshotBytes: n, SnapshotHash: hash}, nil
	case "restore":
		if err := s.Rewind(); err != nil {
			return Response{State: s.State().String()}, err
		}
		return Response{Session: s.ID, State: StateIdle.String()}, nil
	case "close":
		s.Close()
		return Response{State: StateClosed.String()}, nil
	}
	return Response{}, fmt.Errorf("unknown op %q", req.Op)
}

// resolve turns a symbol name or numeric literal into an address.
func (s *Session) resolve(spec string) (uint64, error) {
	if spec == "" {
		return 0, fmt.Errorf("empty symbol/address")
	}
	if a, err := s.prog.Symbol(spec); err == nil {
		return a, nil
	}
	if v, err := strconv.ParseUint(spec, 0, 64); err == nil {
		return v, nil
	}
	return 0, fmt.Errorf("no symbol or address %q", spec)
}

func condOp(op string) (debug.CondOp, error) {
	switch op {
	case "==":
		return debug.CondEq, nil
	case "!=":
		return debug.CondNe, nil
	case "<":
		return debug.CondLt, nil
	case ">":
		return debug.CondGt, nil
	}
	return 0, fmt.Errorf("bad condition op %q", op)
}

func (s *Session) watchpointFromRequest(req *Request) (*debug.Watchpoint, error) {
	addr, err := s.resolve(req.Sym)
	if err != nil {
		return nil, err
	}
	name := req.Name
	if name == "" {
		name = req.Sym
	}
	size := req.Size
	if size == 0 {
		size = 8
	}
	w := &debug.Watchpoint{Name: name, Addr: addr, Size: size}
	switch req.Kind {
	case "", "scalar":
		w.Kind = debug.WatchScalar
	case "indirect":
		w.Kind = debug.WatchIndirect
	case "range":
		w.Kind = debug.WatchRange
		w.Length = req.Length
	default:
		return nil, fmt.Errorf("unknown watch kind %q", req.Kind)
	}
	if req.Cond != nil {
		op, err := condOp(req.Cond.Op)
		if err != nil {
			return nil, err
		}
		w.Cond = &debug.Condition{Op: op, Value: req.Cond.Value}
	}
	return w, nil
}

func (s *Session) breakpointFromRequest(req *Request) (*debug.Breakpoint, error) {
	pc, err := s.resolve(req.Sym)
	if err != nil {
		return nil, err
	}
	b := &debug.Breakpoint{PC: pc}
	if req.Cond != nil {
		op, err := condOp(req.Cond.Op)
		if err != nil {
			return nil, err
		}
		addr, err := s.resolve(req.Cond.Sym)
		if err != nil {
			return nil, err
		}
		b.Cond = &debug.BreakCond{Addr: addr, Op: op, Value: req.Cond.Value}
	}
	return b, nil
}
