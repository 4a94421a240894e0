package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// protoClient drives the wire protocol over an in-memory connection the
// way cmd/disesrv's clients would over TCP or stdio.
type protoClient struct {
	t   *testing.T
	rw  io.ReadWriter
	sc  *bufio.Scanner
	enc *json.Encoder
	seq uint64
}

func newProtoClient(t *testing.T, srv *Server) *protoClient {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		_ = srv.ServeConn(server)
	}()
	t.Cleanup(func() { client.Close() })
	return &protoClient{t: t, rw: client, sc: bufio.NewScanner(client), enc: json.NewEncoder(client)}
}

// wireFrame decodes any server-to-client line: a Response, or a pushed
// EventFrame (distinguished by the "event" key).
type wireFrame struct {
	Response
	Event *Event `json:"event,omitempty"`
}

// call sends req and returns the matching response, collecting (and
// discarding) any event frames pushed in between.
func (c *protoClient) call(req Request) Response {
	resp, _ := c.callCollect(req)
	return resp
}

// callCollect sends req and scans until the matching response arrives,
// returning it along with every event frame interleaved before it.
func (c *protoClient) callCollect(req Request) (Response, []Event) {
	c.t.Helper()
	c.seq++
	req.Seq = c.seq
	if err := c.enc.Encode(&req); err != nil {
		c.t.Fatal(err)
	}
	var pushed []Event
	for {
		if !c.sc.Scan() {
			c.t.Fatalf("connection closed: %v", c.sc.Err())
		}
		var f wireFrame
		if err := json.Unmarshal(c.sc.Bytes(), &f); err != nil {
			c.t.Fatalf("bad frame %q: %v", c.sc.Text(), err)
		}
		if f.Event != nil {
			pushed = append(pushed, *f.Event)
			continue
		}
		if f.Seq != c.seq {
			c.t.Fatalf("response seq %d, want %d", f.Seq, c.seq)
		}
		return f.Response, pushed
	}
}

// ok is call requiring success.
func (c *protoClient) ok(req Request) Response {
	c.t.Helper()
	resp := c.call(req)
	if !resp.OK {
		c.t.Fatalf("op %q failed: %s", req.Op, resp.Err)
	}
	return resp
}

func TestProtocolSession(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, Quantum: 1000})
	c := newProtoClient(t, srv)

	if resp := c.ok(Request{Op: "ping"}); !resp.OK {
		t.Fatal("ping failed")
	}
	created := c.ok(Request{Op: "create", Program: countdownProg, Backend: "dise"})
	if created.Session == 0 || created.State != "idle" {
		t.Fatalf("create = %+v", created)
	}
	id := created.Session

	c.ok(Request{Op: "watch", Session: id, Sym: "v", Cond: &CondSpec{Op: "==", Value: 5}})
	c.ok(Request{Op: "break", Session: id, Sym: "loop"})

	// First stop: the breakpoint at loop's first iteration.
	if resp := c.ok(Request{Op: "continue", Session: id}); resp.State != "running" {
		t.Fatalf("continue = %+v", resp)
	}
	wait := c.ok(Request{Op: "wait", Session: id})
	if wait.State != "idle" || len(wait.Events) != 1 || wait.Events[0].Kind != EventBreak {
		t.Fatalf("first wait = %+v", wait)
	}

	// Run until the conditional watchpoint fires at v == 5 (the
	// breakpoint fires each iteration first; drain until the watch).
	sawWatch := false
	for i := 0; i < 30 && !sawWatch; i++ {
		c.ok(Request{Op: "continue", Session: id})
		wait = c.ok(Request{Op: "wait", Session: id})
		for _, ev := range wait.Events {
			if ev.Kind == EventWatch {
				if ev.Value != 5 {
					t.Fatalf("watch fired with value %d, want 5", ev.Value)
				}
				sawWatch = true
			}
		}
	}
	if !sawWatch {
		t.Fatal("conditional watchpoint never fired")
	}
	read := c.ok(Request{Op: "read", Session: id, Addr: "v"})
	if read.Value == nil || *read.Value != 5 {
		t.Fatalf("read = %+v", read)
	}

	// Attach from a second connection, run to completion there.
	c2 := newProtoClient(t, srv)
	att := c2.ok(Request{Op: "attach", Session: id})
	if att.Session != id {
		t.Fatalf("attach = %+v", att)
	}
	for {
		c2.ok(Request{Op: "continue", Session: id})
		wait = c2.ok(Request{Op: "wait", Session: id})
		if wait.State == "halted" {
			break
		}
	}
	stats := c2.ok(Request{Op: "stats", Session: id})
	if stats.Stats == nil || stats.Stats.AppInsts == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Stats.User == 0 {
		t.Error("no user transitions recorded")
	}

	list := c.ok(Request{Op: "list"})
	if len(list.Sessions) != 1 || list.Sessions[0] != id {
		t.Fatalf("list = %+v", list)
	}
	c.ok(Request{Op: "close", Session: id})
	if resp := c.call(Request{Op: "stats", Session: id}); resp.OK {
		t.Error("stats on closed session succeeded")
	}
	if list = c.ok(Request{Op: "list"}); len(list.Sessions) != 0 {
		t.Fatalf("list after close = %+v", list)
	}
}

// countdown30Prog is countdownProg with 30 iterations, enough traffic to
// overflow small push buffers.
const countdown30Prog = `
.data
.align 8
v: .quad 0
.text
.entry main
main:
    la  r1, v
    li  r2, 30
loop:
.stmt
    stq r2, 0(r1)
    subq r2, #1, r2
    bne r2, loop
    halt
`

// TestProtocolSubscribePush: subscribed connections receive event frames
// in execution order, interleaved with request/response traffic on the
// same connection at line granularity, without disturbing the pull ops.
func TestProtocolSubscribePush(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, Quantum: 1000})
	c := newProtoClient(t, srv)

	created := c.ok(Request{Op: "create", Program: countdownProg})
	id := created.Session
	c.ok(Request{Op: "watch", Session: id, Sym: "v"})
	sub := c.ok(Request{Op: "subscribe", Session: id})
	if sub.Session != id {
		t.Fatalf("subscribe = %+v", sub)
	}

	// Drive to halt over the same connection, collecting frames pushed
	// between requests and responses.
	var pushed []Event
	for {
		resp, evs := c.callCollect(Request{Op: "continue", Session: id})
		if !resp.OK {
			t.Fatalf("continue: %+v", resp)
		}
		pushed = append(pushed, evs...)
		resp, evs = c.callCollect(Request{Op: "wait", Session: id})
		if !resp.OK {
			t.Fatalf("wait: %+v", resp)
		}
		pushed = append(pushed, evs...)
		if resp.State == "halted" {
			break
		}
	}
	// The tail of the stream may still be in flight; ping until the halt
	// frame arrives.
	deadline := time.Now().Add(30 * time.Second)
	for len(pushed) < 11 && time.Now().Before(deadline) {
		_, evs := c.callCollect(Request{Op: "ping"})
		pushed = append(pushed, evs...)
	}
	if len(pushed) != 11 {
		t.Fatalf("pushed %d events, want 11: %+v", len(pushed), pushed)
	}
	for i := 0; i < 10; i++ {
		if pushed[i].Kind != EventWatch || pushed[i].Value != uint64(10-i) {
			t.Fatalf("pushed[%d] = %+v, want watch value %d (order broken)", i, pushed[i], 10-i)
		}
	}
	if pushed[10].Kind != EventHalt {
		t.Fatalf("pushed[10] = %+v, want halt", pushed[10])
	}
	// wait drained the pull queue in parallel the whole time — push is a
	// tee, and both views agree on the event count.
	c.ok(Request{Op: "close", Session: id})
}

// TestProtocolUnsubscribe: buffered frames flush before the unsubscribe
// ack, and after the ack no frames are pushed.
func TestProtocolUnsubscribe(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 1000})
	c := newProtoClient(t, srv)
	created := c.ok(Request{Op: "create", Program: countdownProg})
	id := created.Session
	c.ok(Request{Op: "watch", Session: id, Sym: "v"})
	c.ok(Request{Op: "subscribe", Session: id})
	// Generate one event while subscribed so the queue is non-empty at
	// unsubscribe time; its frame must arrive no later than the ack, and
	// may arrive before the continue response.
	resp, early := c.callCollect(Request{Op: "continue", Session: id})
	if !resp.OK {
		t.Fatalf("continue: %+v", resp)
	}
	resp, waited := c.callCollect(Request{Op: "wait", Session: id})
	if !resp.OK {
		t.Fatalf("wait: %+v", resp)
	}
	early = append(early, waited...)
	_, flushed := c.callCollect(Request{Op: "unsubscribe", Session: id})
	if got := len(early) + len(flushed); got != 1 {
		t.Fatalf("frames before/at unsubscribe = %d (early %+v, flushed %+v), want 1",
			got, early, flushed)
	}
	for {
		resp, evs := c.callCollect(Request{Op: "continue", Session: id})
		if !resp.OK {
			t.Fatalf("continue: %+v", resp)
		}
		if len(evs) != 0 {
			t.Fatalf("frames pushed after unsubscribe: %+v", evs)
		}
		resp, evs = c.callCollect(Request{Op: "wait", Session: id})
		if !resp.OK || len(evs) != 0 {
			t.Fatalf("wait after unsubscribe = %+v, frames %+v", resp, evs)
		}
		if resp.State == "halted" {
			break
		}
	}
}

// TestProtocolResubscribe: replacing a live subscription mid-session
// must not duplicate frames — over the whole run each event is pushed
// exactly once, whichever subscription was current when it fired.
func TestProtocolResubscribe(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 1000})
	c := newProtoClient(t, srv)
	created := c.ok(Request{Op: "create", Program: countdownProg})
	id := created.Session
	c.ok(Request{Op: "watch", Session: id, Sym: "v"})
	c.ok(Request{Op: "subscribe", Session: id})
	var pushed []Event
	rounds := 0
	for {
		resp, evs := c.callCollect(Request{Op: "continue", Session: id})
		if !resp.OK {
			t.Fatalf("continue: %+v", resp)
		}
		pushed = append(pushed, evs...)
		resp, evs = c.callCollect(Request{Op: "wait", Session: id})
		pushed = append(pushed, evs...)
		if resp.State == "halted" {
			break
		}
		if rounds++; rounds == 3 {
			// Replace the subscription mid-run with a different depth.
			_, evs := c.callCollect(Request{Op: "subscribe", Session: id, Depth: 16})
			pushed = append(pushed, evs...)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(pushed) < 11 && time.Now().Before(deadline) {
		_, evs := c.callCollect(Request{Op: "ping"})
		pushed = append(pushed, evs...)
	}
	if len(pushed) != 11 {
		t.Fatalf("pushed %d frames across a re-subscribe, want exactly 11: %+v", len(pushed), pushed)
	}
}

// TestProtocolSubscribeDepthClamped: an absurd client-supplied buffer
// depth must not crash or balloon the server — it is clamped, the
// subscription works, and the connection stays healthy.
func TestProtocolSubscribeDepthClamped(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 1000})
	c := newProtoClient(t, srv)
	created := c.ok(Request{Op: "create", Program: countdownProg})
	id := created.Session
	c.ok(Request{Op: "watch", Session: id, Sym: "v"})
	c.ok(Request{Op: "subscribe", Session: id, Depth: 1 << 30})
	cont, evs := c.callCollect(Request{Op: "continue", Session: id})
	if !cont.OK {
		t.Fatalf("continue: %+v", cont)
	}
	resp, waited := c.callCollect(Request{Op: "wait", Session: id})
	evs = append(evs, waited...)
	deadline := time.Now().Add(30 * time.Second)
	for len(evs) == 0 && time.Now().Before(deadline) {
		_, more := c.callCollect(Request{Op: "ping"})
		evs = append(evs, more...)
	}
	if !resp.OK || len(evs) == 0 || evs[0].Kind != EventWatch {
		t.Fatalf("clamped subscription pushed nothing: resp %+v, frames %+v", resp, evs)
	}
}

// TestProtocolSlowConsumer: a subscriber that stops reading is
// disconnected once it falls a full buffer behind, while the session —
// driven from a second connection — survives and stays attachable.
func TestProtocolSlowConsumer(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, Quantum: 1000, PushBuffer: 4})
	slow := newProtoClient(t, srv)
	created := slow.ok(Request{Op: "create", Program: countdown30Prog})
	id := created.Session
	slow.ok(Request{Op: "watch", Session: id, Sym: "v"})
	slow.ok(Request{Op: "subscribe", Session: id})
	// The slow client now goes silent: it neither reads nor writes.

	driver := newProtoClient(t, srv)
	if att := driver.ok(Request{Op: "attach", Session: id}); att.Session != id {
		t.Fatalf("attach = %+v", att)
	}
	for {
		resp := driver.ok(Request{Op: "continue", Session: id})
		if !resp.OK {
			t.Fatalf("continue: %+v", resp)
		}
		if resp = driver.ok(Request{Op: "wait", Session: id}); resp.State == "halted" {
			break
		}
	}
	// The 31 events overran the 4-deep buffers long ago: the slow
	// consumer must have been severed...
	deadline := time.Now().Add(30 * time.Second)
	for srv.Stats().SlowConsumers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow consumer never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	// ...its connection killed (reads now fail)...
	if slow.sc.Scan() {
		// Buffered frames may still drain; scan until EOF with a limit.
		n := 0
		for slow.sc.Scan() && n < 1000 {
			n++
		}
	}
	// ...and the session is intact and attachable.
	att := driver.ok(Request{Op: "attach", Session: id})
	if att.Session != id || att.State != "halted" {
		t.Fatalf("attach after slow-consumer drop = %+v", att)
	}
	st := driver.ok(Request{Op: "stats", Session: id})
	if st.Stats == nil || st.Stats.User != 30 {
		t.Fatalf("stats after slow-consumer drop = %+v", st)
	}
}

// TestProtocolBackpressureDisconnectWhileParked: severing the connection
// of a backpressure subscriber that stopped reading releases the session
// it parked, which runs on to halt.
func TestProtocolBackpressureDisconnectWhileParked(t *testing.T) {
	srv := newTestServer(t, Config{Quantum: 200, PushBuffer: 2})
	c := newProtoClient(t, srv)
	id := c.ok(Request{Op: "create", Program: bpProg}).Session
	c.ok(Request{Op: "watch", Session: id, Sym: "v"})
	c.ok(Request{Op: "subscribe", Session: id, Backpressure: true})
	// The subscriber now stops reading; the session is driven directly.
	s, ok := srv.Attach(id)
	if !ok {
		t.Fatalf("no session %d", id)
	}
	driveUntilParked(t, srv, s)
	if err := c.rw.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
	if st, ok := s.WaitTimeout(5 * time.Second); !ok {
		t.Fatalf("session still %v 5 s after its subscriber disconnected", st)
	}
}

// TestProtocolWatchRangeCap: a range watch past debug.MaxRangeLength,
// which once panicked the request goroutine at the next continue, is an
// ordinary watch error, and the connection keeps being served.
func TestProtocolWatchRangeCap(t *testing.T) {
	srv := newTestServer(t, DefaultConfig())
	c := newProtoClient(t, srv)
	id := c.ok(Request{Op: "create", Program: countdownProg}).Session
	resp := c.call(Request{Op: "watch", Session: id, Sym: "v", Kind: "range", Length: 1 << 62})
	if resp.OK || resp.Code != "" || !strings.Contains(resp.Err, "range") {
		t.Errorf("huge range watch = %+v, want an uncoded range error", resp)
	}
	c.ok(Request{Op: "ping"})
}

// TestProtocolWatchTopQuad: a watch on the last quad of memory, whose
// end address wraps to 0, and the continue that installs it get ordinary
// responses, and the server keeps answering. Installing it had
// enumerated quads past 2^64 until the process ran out of memory, which
// no recover contains.
func TestProtocolWatchTopQuad(t *testing.T) {
	srv := newTestServer(t, DefaultConfig())
	c := newProtoClient(t, srv)
	id := c.ok(Request{Op: "create", Program: countdownProg}).Session
	c.ok(Request{Op: "watch", Session: id, Sym: "0xfffffffffffffffc", Size: 1})
	c.ok(Request{Op: "continue", Session: id})
	c.ok(Request{Op: "wait", Session: id})
	c.ok(Request{Op: "ping"})
}

// TestProtocolMachinePresets: create takes a machine preset, echoes it on
// create and attach, and rejects unknown names.
func TestProtocolMachinePresets(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 1000})
	c := newProtoClient(t, srv)
	created := c.ok(Request{Op: "create", Program: countdownProg, Machine: "small-cache"})
	if created.Machine != "small-cache" {
		t.Fatalf("create echo = %+v", created)
	}
	att := c.ok(Request{Op: "attach", Session: created.Session})
	if att.Machine != "small-cache" {
		t.Fatalf("attach echo = %+v", att)
	}
	s, ok := srv.Attach(created.Session)
	if !ok {
		t.Fatal("no session")
	}
	want, _ := machine.PresetConfig("small-cache")
	if cfg, _ := s.MachineConfig(); cfg != want {
		t.Error("session machine config is not the preset's")
	}
	if resp := c.call(Request{Op: "create", Program: countdownProg, Machine: "huge"}); resp.OK {
		t.Error("unknown preset accepted")
	} else if !strings.Contains(resp.Err, "preset") {
		t.Errorf("unknown preset error = %q", resp.Err)
	}

	// Sessions inheriting the server default echo the name of the preset
	// it equals, whether the server was given one or defaulted.
	smallSrv := newTestServer(t, Config{Workers: 1, Machine: want})
	cs := newProtoClient(t, smallSrv)
	if resp := cs.ok(Request{Op: "create", Program: countdownProg}); resp.Machine != "small-cache" {
		t.Errorf("inherited create echo = %+v, want small-cache", resp)
	}
	if resp := c.ok(Request{Op: "create", Program: countdownProg}); resp.Machine != "default" {
		t.Errorf("default create echo = %+v, want default", resp)
	}
}

// TestProtocolOverloadedCode: load shedding surfaces as the "overloaded"
// error code on the wire.
func TestProtocolOverloadedCode(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Quantum: 1000, QueueDepth: 1})
	c := newProtoClient(t, srv)
	a := c.ok(Request{Op: "create", Program: spinProg})
	b := c.ok(Request{Op: "create", Program: spinProg})
	c.ok(Request{Op: "continue", Session: a.Session})
	resp := c.call(Request{Op: "continue", Session: b.Session})
	if resp.OK || resp.Code != "overloaded" {
		t.Fatalf("overloaded continue = %+v, want code overloaded", resp)
	}
	if resp.State != "idle" {
		t.Errorf("shed session state = %q, want idle", resp.State)
	}
}

// TestProtocolServerStats: the session-less stats form reports
// server-wide counters.
func TestProtocolServerStats(t *testing.T) {
	srv := newTestServer(t, DefaultConfig())
	c := newProtoClient(t, srv)
	c.ok(Request{Op: "create", Program: countdownProg})
	resp := c.ok(Request{Op: "stats"})
	if resp.Server == nil || resp.Server.SessionsCreated != 1 {
		t.Fatalf("server stats = %+v", resp)
	}
}

// TestProtocolCreateDataCap: one-line programs whose data directives
// once panicked the assembler or exhausted memory on the request path
// are ordinary create errors, and the connection keeps being served.
func TestProtocolCreateDataCap(t *testing.T) {
	srv := newTestServer(t, DefaultConfig())
	c := newProtoClient(t, srv)
	for _, src := range []string{
		"x: .space -5",
		"x: .space 99999999999",
		".data\n.align 4294967296",
	} {
		resp := c.call(Request{Op: "create", Program: src})
		if resp.OK || resp.Code != "" || !strings.Contains(resp.Err, "asm:") {
			t.Errorf("create %q = %+v, want an uncoded asm error", src, resp)
		}
		c.ok(Request{Op: "ping"})
	}
}

func TestProtocolErrors(t *testing.T) {
	srv := newTestServer(t, DefaultConfig())
	c := newProtoClient(t, srv)

	if resp := c.call(Request{Op: "create", Program: "not assembly"}); resp.OK {
		t.Error("create with bad program succeeded")
	}
	if resp := c.call(Request{Op: "create", Program: countdownProg, Backend: "nope"}); resp.OK {
		t.Error("create with bad backend succeeded")
	}
	if resp := c.call(Request{Op: "continue", Session: 999}); resp.OK {
		t.Error("continue on missing session succeeded")
	}
	if resp := c.call(Request{Op: "frobnicate"}); resp.OK {
		t.Error("unknown op succeeded")
	}
	created := c.ok(Request{Op: "create", Program: countdownProg})
	if resp := c.call(Request{Op: "watch", Session: created.Session, Sym: "nosuch"}); resp.OK {
		t.Error("watch on missing symbol succeeded")
	}
	// An unknown op fails the same way when it names an open session.
	if resp := c.call(Request{Op: "rerank", Session: created.Session}); resp.OK || resp.Err != `unknown op "rerank"` {
		t.Errorf("rerank = %+v, want unknown op", resp)
	}

	// continue on a halted session fails and must report the session's
	// real state, not "running".
	halted := c.ok(Request{Op: "create", Program: spinProg})
	c.ok(Request{Op: "continue", Session: halted.Session, Budget: 10})
	c.ok(Request{Op: "wait", Session: halted.Session})
	c.ok(Request{Op: "close", Session: halted.Session})
	done := c.ok(Request{Op: "create", Program: countdownProg})
	for {
		c.ok(Request{Op: "continue", Session: done.Session})
		if c.ok(Request{Op: "wait", Session: done.Session}).State == "halted" {
			break
		}
	}
	if r := c.call(Request{Op: "continue", Session: done.Session}); r.OK || r.State != "halted" {
		t.Errorf("continue on halted session = %+v, want err with state halted", r)
	}

	// Malformed JSON gets an error response, not a dropped connection.
	if _, err := io.WriteString(c.rw, "{bad json\n"); err != nil {
		t.Fatal(err)
	}
	if !c.sc.Scan() {
		t.Fatal("connection dropped on malformed request")
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "bad request") {
		t.Errorf("malformed request response = %+v", resp)
	}
}
