package main

import (
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/asm"
	"repro/internal/serve"
)

// Sizes of the batch workload: live sessions, instructions per continue,
// and sessions closed and recreated each round.
const (
	batchSessions = 32
	batchBudget   = 200_000
	batchRecycle  = 8
)

// batchShapes are the machine presets and buffer sizes of the session
// slots: slot i runs shape i mod 9, and a recreated session keeps its
// slot's shape, so every seed runs the same mix.
var batchShapes = func() (out []batchShape) {
	for _, p := range []string{"default", "small-cache", "big-l2"} {
		for _, b := range []int{8 << 10, 64 << 10, 512 << 10} {
			out = append(out, batchShape{p, b})
		}
	}
	return out
}()

type batchShape struct {
	preset string
	buf    int // bytes
}

// batch uses the same server for throughput: one connection with 32
// subscribed sessions. A round closes and recreates 8 seed-chosen
// sessions (pool recycling), sends one pipelined write of 32 continues,
// and waits for the 32 pushed stop frames. An op is one session's
// turnaround, from the write to its stop frame; a round is the whole
// batch. The seed shapes each session's program and picks the sessions
// recycled.
type batch struct {
	cfg  *config
	ws   *wireServer
	c    *client
	live []*batchSess
	next int  // next session index
	warm bool // the warm-up round has run
	// budget is each continue's instruction budget.
	budget uint64

	closed []*batchSess // in close order, with the stats the wire reported

	// Traced-phase observations.
	traces        []sessTrace
	m0, m1        map[string]any
	roundStarts   []int64   // Unix ns of each traced round's write
	spreads       samples   // per round: (last stop - first stop) / round time
	turnarounds   samples   // traced turnarounds, ms
	roundFirstEnd []int64   // Unix ns of each traced round's first stop frame
	counts        simCounts // replayed sessions' statistics
}

type batchSess struct {
	batchShape
	idx, continues int
	id             uint64
	sends          []int64 // traced-phase continue send times
	stats          serve.StatsJSON
}

func newBatch(cfg *config) *batch {
	w := &batch{cfg: cfg, budget: batchBudget}
	if cfg.quick {
		w.budget = batchBudget / 10
	}
	return w
}

func (w *batch) program(s *batchSess) string {
	return genProgram(w.cfg.rng(2<<40|uint64(s.idx)), s.buf)
}

// create opens the next session, in slot, and subscribes the connection
// to it.
func (w *batch) create(rec *recorder, slot int) (*batchSess, error) {
	s := &batchSess{batchShape: batchShapes[slot%len(batchShapes)], idx: w.next}
	w.next++
	src := w.program(s)
	var err error
	rec.tr.within("asm.assemble", nil, func() { _, err = asm.Assemble(src) })
	if err != nil {
		return nil, err
	}
	f, err := w.c.call(rec, nil, &serve.Request{Op: "create", Program: src, Machine: s.preset})
	if err != nil {
		return nil, err
	}
	s.id = f.Session
	if _, err := w.c.call(rec, nil, &serve.Request{Op: "subscribe", Session: s.id}); err != nil {
		return nil, err
	}
	return s, nil
}

func (w *batch) setUp(tr *tracer) error {
	ws, err := startServer()
	if err != nil {
		return err
	}
	w.ws = ws
	if w.c, err = dial(ws); err != nil {
		return err
	}
	rec := newRecorder(tr)
	w.live, w.next = nil, 0
	for i := 0; i < batchSessions; i++ {
		s, err := w.create(rec, i)
		if err != nil {
			return err
		}
		w.live = append(w.live, s)
	}
	return nil
}

func (w *batch) tearDown() {
	if w.c != nil {
		w.c.close()
	}
	if w.ws != nil {
		w.ws.stop()
	}
}

func (w *batch) measure(deadline time.Time, rec *recorder) error {
	// The warm-up round (the first call) leaves the set-up sessions alone.
	recycle := w.warm
	w.warm = true
	if rec.tr != nil {
		m, err := metricsSnapshot(w.c, rec)
		if err != nil {
			return err
		}
		w.m0 = m
	}
	rng := w.cfg.rng(5 + uint64(w.next))
	for {
		if recycle {
			for _, i := range rng.Perm(len(w.live))[:batchRecycle] {
				if err := w.recycle(rec, i); err != nil {
					return err
				}
			}
		}
		if err := w.round(rec); err != nil {
			return err
		}
		rec.cal.tick()
		if !time.Now().Before(deadline) {
			break
		}
	}
	if rec.tr != nil {
		for _, s := range w.live {
			if err := w.snapshotTrace(rec, s); err != nil {
				return err
			}
		}
		m, err := metricsSnapshot(w.c, rec)
		if err != nil {
			return err
		}
		w.m1 = m
	}
	return nil
}

// recycle closes live session i, recording its statistics, and opens a
// new one in its place.
func (w *batch) recycle(rec *recorder, i int) error {
	s := w.live[i]
	f, err := w.c.call(rec, nil, &serve.Request{Op: "stats", Session: s.id})
	if err != nil {
		return err
	}
	s.stats = *f.Stats
	if rec.tr != nil {
		if err := w.snapshotTrace(rec, s); err != nil {
			return err
		}
	}
	if _, err := w.c.call(rec, nil, &serve.Request{Op: "close", Session: s.id}); err != nil {
		return err
	}
	w.closed = append(w.closed, s)
	w.live[i], err = w.create(rec, i)
	return err
}

func (w *batch) snapshotTrace(rec *recorder, s *batchSess) error {
	f, err := w.c.call(rec, nil, &serve.Request{Op: "trace", Session: s.id})
	if err == nil {
		w.traces = append(w.traces, sessTrace{Session: s.id, Sends: s.sends, Events: f.Trace})
	}
	return err
}

// round resumes every live session with one pipelined write and waits
// for all of their stop frames.
func (w *batch) round(rec *recorder) error {
	sp := rec.tr.start("round", nil)
	defer rec.tr.finish(sp)
	slot := make(map[uint64]int, len(w.live))
	reqs := make([]*serve.Request, len(w.live))
	for i, s := range w.live {
		slot[s.id] = i
		reqs[i] = &serve.Request{Op: "continue", Session: s.id, Budget: w.budget}
	}
	t0 := time.Now()
	if err := w.c.send(reqs...); err != nil {
		return err
	}
	var stops []time.Duration
	acks := 0
	for acks < len(reqs) || len(stops) < len(reqs) {
		var f frame
		var err error
		if len(w.c.pushed) > 0 {
			f, w.c.pushed = w.c.pushed[0], w.c.pushed[1:]
		} else if f, err = w.c.next(); err != nil {
			return err
		}
		at := time.Since(t0)
		switch {
		case f.Event == nil:
			acks++
			rec.wireOp("continue", at)
			if !f.OK {
				rec.fail(fmt.Errorf("continue: %s (code %q)", f.Err, f.Code))
				stops = append(stops, at) // no stop frame will come
			}
		case f.Event.Kind != serve.EventStop:
			return fmt.Errorf("session %d pushed %q, want a stop", f.Session, f.Event.Kind)
		default:
			stops = append(stops, at)
			rec.op(at)
			w.live[slot[f.Session]].continues++
		}
	}
	round := time.Since(t0)
	rec.round(round)
	rec.insts += uint64(len(reqs)) * w.budget
	if rec.tr != nil {
		start := t0.UnixNano()
		for _, s := range w.live {
			s.sends = append(s.sends, start)
		}
		w.roundStarts = append(w.roundStarts, start)
		w.roundFirstEnd = append(w.roundFirstEnd, start+int64(stops[0]))
		w.spreads = append(w.spreads, float64(stops[len(stops)-1]-stops[0])/float64(round))
		for _, d := range stops {
			w.turnarounds = append(w.turnarounds, ms(d))
		}
	}
	return nil
}

// replay re-runs a closed session through the library with the same
// program, machine preset and continues.
func (w *batch) replay(rec *recorder, s *batchSess) (serve.StatsJSON, error) {
	prog, err := dise.Assemble(w.program(s))
	if err != nil {
		return serve.StatsJSON{}, err
	}
	mcfg, ok := dise.MachinePresetConfig(s.preset)
	if !ok {
		return serve.StatsJSON{}, fmt.Errorf("no preset %q", s.preset)
	}
	var ds *dise.Session
	rec.tr.within("machine.new", nil, func() {
		ds, err = dise.NewSessionWith(prog, dise.DefaultOptions(dise.BackendDise), mcfg)
	})
	if err != nil {
		return serve.StatsJSON{}, err
	}
	t := time.Now()
	for i := 0; i < s.continues && err == nil; i++ {
		rec.tr.within("machine.run", nil, func() { _, err = ds.Run(uint64(i+1) * w.budget) })
	}
	st := ds.M.Core.Stats()
	rec.sim(time.Since(t), st)
	w.counts.add(ds.M, ds.Transitions())
	return statsOf(st, ds.Transitions()), err
}

func (w *batch) check(rec *recorder) {
	pool := w.closed[:min(len(w.closed), 2*replaySessions)]
	want := replaySessions
	if w.cfg.quick {
		want = min(want, len(pool))
	}
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	picked := sampleIndexes(w.cfg, idx, want)
	if len(picked) < want {
		rec.fail(fmt.Errorf("only %d closed sessions to replay, want %d", len(picked), want))
	}
	for _, i := range picked {
		s := pool[i]
		got, err := w.replay(rec, s)
		if err == nil && got != s.stats {
			err = fmt.Errorf("wire %s, library %s", statsLine(&s.stats), statsLine(&got))
		}
		if err != nil {
			err = fmt.Errorf("replay session %d (%s, %d continues): %w", s.idx, s.preset, s.continues, err)
		}
		rec.check(err)
	}
	if w.cfg.seed == 1 && !w.cfg.quick {
		var b strings.Builder
		for _, s := range w.closed[:min(len(w.closed), 16)] {
			fmt.Fprintf(&b, "session %d %s buf=%d continues=%d %s\n", s.idx, s.preset, s.buf, s.continues, statsLine(&s.stats))
		}
		rec.check(w.cfg.checkGolden("wire-batch.txt", b.String()))
	}
}

func (w *batch) layerMetrics(_ *recorder, out map[string]float64) {
	w.counts.metrics(out)
	serveLayerMetrics(w.cfg.traceDir, w.traces, w.m0, w.m1, out)
	out["serve.finish_spread_frac"] = w.spreads.quantile(0.5)
	out["serve.turnaround.p99_ms"] = w.turnarounds.quantile(0.99)
	out["serve.quanta_share_min_over_max"] = w.quantaShare()
}

// quantaShare is, per traced round, the fewest quanta any session had
// completed by the round's first stop over the most any had, taken over
// the sessions whose trace covers the round; the median over rounds.
func (w *batch) quantaShare() float64 {
	var shares samples
	for r, start := range w.roundStarts {
		end := w.roundFirstEnd[r]
		lo, hi := -1, 0
		for _, t := range w.traces {
			if len(t.Events) == 0 || t.Events[0].TimeNs > start || t.Events[len(t.Events)-1].TimeNs < end {
				continue
			}
			n := 0
			for _, ev := range t.Events {
				if ev.Kind == serve.TraceQEnd && ev.TimeNs > start && ev.TimeNs <= end {
					n++
				}
			}
			if lo < 0 || n < lo {
				lo = n
			}
			hi = max(hi, n)
		}
		if hi > 0 {
			shares = append(shares, float64(lo)/float64(hi))
		}
	}
	return shares.quantile(0.5)
}
