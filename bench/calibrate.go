package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host under this benchmark changes speed: on a shared 2-vCPU guest
// the same simulation ran from 8 to 15 Minsts/s in consecutive runs while
// the process kept its CPU the whole time. End-to-end times are therefore
// reported in cals: each op and round is divided by the time of a fixed
// calibration loop timed around it, between rounds, and the median is
// taken over the quotients. A slower host stretches the loop and the
// workload alike; a change to the program moves only the workload,
// because the loop is the benchmark's own code and is timed warm (see
// time), so what the program left in the caches does not move it either.

// calRefMs is the loop's time on the machine the benchmark was built on
// (a 2-vCPU KVM guest, when its host was quiet). setup_s must be in
// seconds, so set-up times are scaled to that machine's speed.
const calRefMs = 0.5

// calEvery is how often a phase times the calibration loop.
const calEvery = 200 * time.Millisecond

// calWords sizes the loop's array: 4 MB, past the L2 of the machines the
// benchmark was built on, like the simulator's own working set.
const calWords = 1 << 19

// calLoop is fixed work: integer arithmetic and scattered
// read-modify-writes. Of the loops tried (this, a sort, a small
// interpreter), it followed the host's slowdowns of the simulator and of
// the wire round trips most closely.
func calLoop(buf []uint64) {
	x := uint64(1)
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[(x>>40)&(calWords-1)] += x
	}
}

// calibrator times the loop for one phase; it is used from the phase's
// driving goroutine only.
type calibrator struct {
	// threads is how many copies of the loop run at once, one per CPU the
	// workload keeps busy (see calThreads); a timing is the slowest copy.
	threads int
	bufs    [][]uint64
	last    time.Time
	runs    samples // ms
}

// calThreads is how many CPUs a workload's timed phase keeps busy.
// wire-batch runs every server worker at once (it used 1.9 CPU-seconds a
// second where the others used 1.0-1.1), and a host that slows one vCPU
// slows it but not a one-thread loop: across ten runs on a busy host, its
// times divided by a two-thread loop spread 8% against 12%.
func calThreads(w runner) int {
	if _, ok := w.(*batch); ok {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// tick times the loop if calEvery has passed since it last did, and
// returns how long that took, warm-up passes included (0 if it did not
// run).
func (c *calibrator) tick() time.Duration {
	if !c.last.IsZero() && time.Since(c.last) < calEvery {
		return 0
	}
	t0 := time.Now()
	c.time()
	return time.Since(t0)
}

// time times the loop once and returns how long it took. Two untimed
// passes first bring the array back into cache: timed straight after a
// round, the loop mostly measured how much of it the round had evicted,
// which depends on the program; across ten runs on a busy host, sim-dise
// times divided by it spread three times as far as divided by the warm
// loop.
func (c *calibrator) time() time.Duration {
	if c.bufs == nil {
		c.bufs = make([][]uint64, max(1, c.threads))
		for i := range c.bufs {
			c.bufs[i] = make([]uint64, calWords)
		}
	}
	ds := make([]time.Duration, len(c.bufs))
	var wg sync.WaitGroup
	for i, buf := range c.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calLoop(buf)
			calLoop(buf)
			t0 := time.Now()
			calLoop(buf)
			ds[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	d := slices.Max(ds)
	c.runs = append(c.runs, ms(d))
	c.last = time.Now()
	return d
}

// ms is the median loop time in milliseconds over the phase.
func (c *calibrator) ms() float64 { return c.runs.quantile(0.5) }

// current is one cal now: the median of the last few loop times, which
// follows the host's speed through the run without the jitter of a
// single timing.
func (c *calibrator) current() float64 { return c.since(len(c.runs) - 5) }

// since is one cal over a stretch of the run: the median of the loop
// times from the i'th on (at least the last one).
func (c *calibrator) since(i int) float64 {
	return c.runs[max(0, min(i, len(c.runs)-1)):].quantile(0.5)
}

// release drops the loop's arrays so they do not count as live heap.
func (c *calibrator) release() { c.bufs = nil }
