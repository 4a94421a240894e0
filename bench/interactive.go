package main

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/asm"
	"repro/internal/serve"
)

// Sizes of one interactive session: continues to the watchpoint, steps
// after each, and the continue budget (far past the next write to v).
const (
	interContinues = 16
	interSteps     = 4
	interBudget    = 500_000
	interBuf       = 8 << 10
	replayPool     = 64 // the replay samples from the first sessions
	replaySessions = 32
)

// interactive is the interactive user: one connection running a closed
// loop of sessions that create a seed-generated program, watch v, and
// alternate continue-to-watchpoint with single steps, then read, stats
// and close. An op is one debugger command (a resume counts with the
// wait for its stop); a round is one session. One client rather than
// two: with two, each client's latency depended on how the other's
// resumes overlapped it, and run-to-run throughput spread past 10% on
// a 2-CPU machine.
type interactive struct {
	cfg  *config
	ws   *wireServer
	c    *client
	next int // next session index

	results map[int]interResult // session index -> what the wire reported
	traces  []sessTrace
	m0, m1  map[string]any
	counts  simCounts
}

type interResult struct {
	stats serve.StatsJSON
	value uint64
}

func newInteractive(cfg *config) *interactive {
	return &interactive{cfg: cfg, results: map[int]interResult{}}
}

// setUp starts the server and connects, then opens and closes one
// session, so the server has built the machine its first session needs.
func (w *interactive) setUp(tr *tracer) error {
	ws, err := startServer()
	if err != nil {
		return err
	}
	w.ws = ws
	if w.c, err = dial(ws); err != nil {
		return err
	}
	rec := newRecorder(tr)
	f, err := w.c.call(rec, nil, &serve.Request{Op: "create", Program: genProgram(w.cfg.rng(3<<40), interBuf)})
	if err != nil {
		return err
	}
	_, err = w.c.call(rec, nil, &serve.Request{Op: "close", Session: f.Session})
	return err
}

func (w *interactive) tearDown() {
	if w.c != nil {
		w.c.close()
	}
	if w.ws != nil {
		w.ws.stop()
	}
}

// sessionRand is the generator behind one session's program and step
// counts, so a replay can regenerate both.
func (w *interactive) sessionRand(idx int) *rand.Rand { return w.cfg.rng(1<<40 | uint64(idx)) }

func (w *interactive) measure(deadline time.Time, rec *recorder) error {
	var err error
	if rec.tr != nil {
		if w.m0, err = metricsSnapshot(w.c, rec); err != nil {
			return err
		}
	}
	for {
		idx := w.next
		w.next++
		if err := w.session(idx, rec); err != nil {
			rec.fail(fmt.Errorf("session %d: %w", idx, err))
		}
		rec.cal.tick()
		if !time.Now().Before(deadline) {
			break
		}
	}
	if rec.tr != nil {
		w.m1, err = metricsSnapshot(w.c, rec)
	}
	return err
}

// session runs one debug session.
func (w *interactive) session(idx int, rec *recorder) error {
	c := w.c
	t0 := time.Now()
	sp := rec.tr.start("session", nil)
	defer rec.tr.finish(sp)
	rng := w.sessionRand(idx)
	src := genProgram(rng, interBuf)
	var err error
	rec.tr.within("asm.assemble", sp, func() { _, err = asm.Assemble(src) })
	if err != nil {
		return err
	}
	fr, err := c.command(rec, sp, &serve.Request{Op: "create", Program: src})
	if err != nil {
		return err
	}
	id := fr[0].Session
	closed := false
	defer func() {
		if !closed {
			_, _ = c.call(rec, sp, &serve.Request{Op: "close", Session: id})
		}
	}()
	if _, err := c.command(rec, sp, &serve.Request{Op: "watch", Session: id, Sym: "v"}); err != nil {
		return err
	}
	var sends []int64
	var lastWatch uint64
	resume := func(q *serve.Request, wantWatch bool) error {
		sends = append(sends, time.Now().UnixNano())
		fr, err := c.command(rec, sp, q, &serve.Request{Op: "wait", Session: id})
		if err != nil {
			return err
		}
		evs := fr[1].Events
		if len(evs) == 0 {
			return fmt.Errorf("%s returned no event", q.Op)
		}
		for _, ev := range evs {
			if ev.Kind == serve.EventWatch {
				lastWatch = ev.Value
			}
		}
		if k := evs[len(evs)-1].Kind; k != serve.EventWatch && (wantWatch || k != serve.EventStop) {
			return fmt.Errorf("%s stopped with %q", q.Op, k)
		}
		return nil
	}
	for i := 0; i < interContinues; i++ {
		if err := resume(&serve.Request{Op: "continue", Session: id, Budget: interBudget}, true); err != nil {
			return err
		}
		for j := 0; j < interSteps; j++ {
			if err := resume(&serve.Request{Op: "step", Session: id, Count: 1 + uint64(rng.IntN(64))}, false); err != nil {
				return err
			}
		}
	}
	fr, err = c.command(rec, sp, &serve.Request{Op: "read", Session: id, Addr: "v"})
	if err != nil {
		return err
	}
	if fr[0].Value == nil || *fr[0].Value != lastWatch {
		return fmt.Errorf("read v = %v, last watch event saw %d", fr[0].Value, lastWatch)
	}
	value := *fr[0].Value
	fr, err = c.command(rec, sp, &serve.Request{Op: "stats", Session: id})
	if err != nil {
		return err
	}
	st := fr[0].Stats
	if st == nil {
		return errors.New("stats returned no statistics")
	}
	if rec.tr != nil {
		f, err := c.call(rec, sp, &serve.Request{Op: "trace", Session: id})
		if err != nil {
			return err
		}
		w.traces = append(w.traces, sessTrace{Session: id, Sends: sends, Events: f.Trace})
	}
	closed = true
	if _, err := c.command(rec, sp, &serve.Request{Op: "close", Session: id}); err != nil {
		return err
	}
	rec.insts += st.AppInsts
	rec.round(time.Since(t0))
	if idx < replayPool {
		w.results[idx] = interResult{*st, value}
	}
	return nil
}

// replay re-runs a session through the library debugger (dise.Session,
// stopping at each user transition) with the same program, commands and
// budgets, and returns what the wire should have reported.
func (w *interactive) replay(rec *recorder, idx int) (interResult, error) {
	rng := w.sessionRand(idx)
	prog, err := dise.Assemble(genProgram(rng, interBuf))
	if err != nil {
		return interResult{}, err
	}
	var s *dise.Session
	rec.tr.within("machine.new", nil, func() {
		s, err = dise.NewSessionWith(prog, dise.DefaultOptions(dise.BackendDise), dise.DefaultMachineConfig())
	})
	if err != nil {
		return interResult{}, err
	}
	s.StopOnUser = true
	if err := s.WatchScalar("v", prog.MustSymbol("v"), 8); err != nil {
		return interResult{}, err
	}
	var host time.Duration
	run := func(budget uint64) {
		if err != nil {
			return
		}
		rec.tr.within("machine.run", nil, func() {
			t := time.Now()
			_, err = s.Run(s.M.Core.Stats().AppInsts + budget)
			host += time.Since(t)
		})
	}
	for i := 0; i < interContinues; i++ {
		run(interBudget)
		for j := 0; j < interSteps; j++ {
			run(1 + uint64(rng.IntN(64)))
		}
	}
	if err != nil {
		return interResult{}, err
	}
	st := s.M.Core.Stats()
	rec.sim(host, st)
	w.counts.add(s.M, s.Transitions())
	return interResult{statsOf(st, s.Transitions()), s.M.ReadQuad(prog.MustSymbol("v"))}, nil
}

func (w *interactive) check(rec *recorder) {
	want := replaySessions
	if w.cfg.quick {
		want = min(want, len(w.results))
	}
	picked := sampleIndexes(w.cfg, slices.Sorted(maps.Keys(w.results)), want)
	if len(picked) < want {
		rec.fail(fmt.Errorf("only %d sessions to replay, want %d", len(picked), want))
	}
	for _, idx := range picked {
		got := w.results[idx]
		rep, err := w.replay(rec, idx)
		if err == nil && rep != got {
			err = fmt.Errorf("wire %s v=%d, library %s v=%d", statsLine(&got.stats), got.value, statsLine(&rep.stats), rep.value)
		}
		if err != nil {
			err = fmt.Errorf("replay session %d: %w", idx, err)
		}
		rec.check(err)
	}
	if w.cfg.seed == 1 && !w.cfg.quick {
		var b strings.Builder
		for idx := 0; idx < 16; idx++ {
			r := w.results[idx]
			fmt.Fprintf(&b, "session %d %s v=%d\n", idx, statsLine(&r.stats), r.value)
		}
		rec.check(w.cfg.checkGolden("wire-interactive.txt", b.String()))
	}
}

func (w *interactive) layerMetrics(_ *recorder, out map[string]float64) {
	w.counts.metrics(out)
	serveLayerMetrics(w.cfg.traceDir, w.traces, w.m0, w.m1, out)
}
