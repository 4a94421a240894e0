package pipeline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/dise"
	"repro/internal/mem"
)

// newTestCore builds a bare core for white-box store-queue tests.
func newTestCore() *Core {
	return New(DefaultConfig(), mem.New(), cache.NewHierarchy(cache.DefaultConfig()),
		bpred.New(bpred.DefaultConfig()), dise.NewEngine(dise.DefaultConfig()))
}

// TestCoreFootprint bounds what building a default event-mode core
// allocates. Its timing tables hold only what can still affect a future
// decision — cursors for fetch, dispatch, and commit, and port rings at
// their starting 1,024 slots — so a core stays under 64 KiB (six
// 16,384-slot rings once made it about 969 KB). A debug service holds a
// whole machine per session, so this is per-session memory.
func TestCoreFootprint(t *testing.T) {
	m, hier := mem.New(), cache.NewHierarchy(cache.DefaultConfig())
	bp, eng := bpred.New(bpred.DefaultConfig()), dise.NewEngine(dise.DefaultConfig())
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New(DefaultConfig(), m, hier, bp, eng)
		}
	})
	got := res.AllocedBytesPerOp()
	if got > 64<<10 {
		t.Fatalf("New allocates %d bytes per core, want at most %d", got, 64<<10)
	}
	t.Logf("New allocates %d bytes per core", got)
}

// refBooking is an independent reference: a fixed 16,384-slot ring with
// no floor and no growth, probing linearly from earliest. The streams fed
// to it keep their live windows far inside its span, so it answers
// exactly.
type refBooking struct {
	cycle []uint64
	count []uint16
	limit uint16
}

func newRefBooking(limit int) *refBooking {
	const ringSize = 1 << 14
	return &refBooking{
		cycle: make([]uint64, ringSize),
		count: make([]uint16, ringSize),
		limit: uint16(limit),
	}
}

func (b *refBooking) book(earliest uint64) uint64 {
	c := earliest
	for {
		i := c & uint64(len(b.cycle)-1)
		if b.cycle[i] != c || b.count[i] < b.limit {
			break
		}
		c++
	}
	i := c & uint64(len(b.cycle)-1)
	if b.cycle[i] != c {
		b.cycle[i] = c
		b.count[i] = 0
	}
	b.count[i]++
	return c
}

// mapBooking is the exact reference: a cycle → count map with no ring, so
// no reservation is ever lost however far apart the live cycles are.
type mapBooking struct {
	count map[uint64]uint16
	limit uint16
}

func newMapBooking(limit int) *mapBooking {
	return &mapBooking{count: map[uint64]uint16{}, limit: uint16(limit)}
}

func (b *mapBooking) book(earliest uint64) uint64 {
	c := earliest
	for b.count[c] >= b.limit {
		c++
	}
	b.count[c]++
	return c
}

// suffixFloors returns, for each request, the true floor the core would
// pass: the lowest cycle this or any later request names.
func suffixFloors(reqs []uint64) []uint64 {
	floors := make([]uint64, len(reqs))
	low := ^uint64(0)
	for i := len(reqs) - 1; i >= 0; i-- {
		low = min(low, reqs[i])
		floors[i] = low
	}
	return floors
}

// requireSameRing fails unless two bookings hold bit-identical rings, at
// the same length.
func requireSameRing(t *testing.T, what string, a, b *booking) {
	t.Helper()
	if len(a.cycle) != len(b.cycle) {
		t.Fatalf("%s: ring length diverged: %d vs %d", what, len(a.cycle), len(b.cycle))
	}
	for i := range a.cycle {
		if a.cycle[i] != b.cycle[i] || a.count[i] != b.count[i] {
			t.Fatalf("%s: ring slot %d diverged: (%d,%d) vs (%d,%d)",
				what, i, a.cycle[i], a.count[i], b.cycle[i], b.count[i])
		}
	}
}

// TestBookingMatchesReference drives the port table and this test's
// independent reference with identical pseudo-random request streams —
// including the mostly-monotonic-with-jitter pattern the pipeline
// produces, replays of older earliest cycles, and abrupt forward jumps
// like debugger-transition stalls — and requires bit-equal results. Each
// request carries its true floor (the lowest cycle it or any later
// request names), so the ring may drop what is below it.
func TestBookingMatchesReference(t *testing.T) {
	for _, limit := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(42 + limit)))
		reqs := make([]uint64, 200_000)
		base := uint64(1)
		for i := range reqs {
			switch rng.Intn(100) {
			case 0:
				base += uint64(rng.Intn(5000)) // stall-like jump
			case 1, 2:
				if base > 200 {
					base -= uint64(rng.Intn(100)) // replayed older earliest
				}
			default:
				base += uint64(rng.Intn(3))
			}
			reqs[i] = base + uint64(rng.Intn(8))
		}
		floors := suffixFloors(reqs)
		b := newBooking(limit)
		ref := newRefBooking(limit)
		for i, earliest := range reqs {
			got, want := b.book(earliest, floors[i]), ref.book(earliest)
			if got != want {
				t.Fatalf("limit=%d step=%d book(%d) = %d, reference = %d",
					limit, i, earliest, got, want)
			}
		}
	}
}

// TestBookingExactBeyondRingSpan pins the port tables' exactness: live
// windows far longer than the starting ring — and than the fixed 16,384-
// slot ring the tables once had — must book exactly what the map
// reference books, and reset must return a grown ring to its starting
// size.
func TestBookingExactBeyondRingSpan(t *testing.T) {
	t.Run("alias", func(t *testing.T) {
		// 16,484 and 100 share a slot in every ring up to 16,384 slots:
		// a ring that overwrote the live reservation at 100 would grant
		// 100 twice on a limit-1 table.
		b := newBooking(1)
		for _, step := range []struct{ earliest, want uint64 }{{100, 100}, {16_484, 16_484}, {100, 101}} {
			if got := b.book(step.earliest, 100); got != step.want {
				t.Fatalf("book(%d) = %d, want %d", step.earliest, got, step.want)
			}
		}
		if len(b.cycle) != 1<<15 {
			t.Fatalf("ring holds %d slots, want %d", len(b.cycle), 1<<15)
		}
	})
	for _, limit := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(500 + limit)))
			b := newBooking(limit)
			ref := newMapBooking(limit)
			floor := uint64(1)
			for i := 0; i < 50_000; i++ {
				floor += uint64(rng.Intn(3))
				earliest := floor + uint64(rng.Intn(64))
				if rng.Intn(10) == 0 {
					earliest = floor + uint64(rng.Intn(40_000)) // far-ahead booking stays live
				}
				got, want := b.book(earliest, floor), ref.book(earliest)
				if got != want {
					t.Fatalf("step=%d book(%d, floor %d) = %d, exact = %d", i, earliest, floor, got, want)
				}
			}
			if len(b.cycle) <= 1<<14 {
				t.Fatalf("ring holds %d slots: the stream never outgrew a 16,384-cycle window", len(b.cycle))
			}

			// A reset ring is a fresh one: starting size, and the same
			// answers as a new booking from here on.
			b.reset()
			if len(b.cycle) != bookingSlots {
				t.Fatalf("reset ring holds %d slots, want %d", len(b.cycle), bookingSlots)
			}
			fresh := newBooking(limit)
			for i := 0; i < 1000; i++ {
				earliest := uint64(1 + i/2)
				if got, want := b.book(earliest, 1), fresh.book(earliest, 1); got != want {
					t.Fatalf("after reset: book(%d) = %d, fresh booking = %d", earliest, got, want)
				}
			}
			requireSameRing(t, "reset vs fresh", b, fresh)
		})
	}
}

// TestBookingCursorMonotonic pins the scheduling property the timing
// model relies on: for non-decreasing earliest requests the booked cycles
// are non-decreasing, and a booked cycle is never before its request.
func TestBookingCursorMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := newBooking(2)
	earliest := uint64(1)
	last := uint64(0)
	for i := 0; i < 100_000; i++ {
		earliest += uint64(rng.Intn(2))
		at := b.book(earliest, earliest)
		if at < earliest {
			t.Fatalf("book(%d) = %d, before request", earliest, at)
		}
		if at < last {
			t.Fatalf("book(%d) = %d went backwards (prev %d)", earliest, at, last)
		}
		last = at
	}
}

// TestBookingSkipsFullRun checks the probe across a long fully booked
// run: a request below the run still gets its own free cycle, and one
// inside the run lands just past it.
func TestBookingSkipsFullRun(t *testing.T) {
	b := newBooking(1)
	for c := uint64(100); c < 3100; c++ {
		if got := b.book(100, 50); got != c {
			t.Fatalf("book(100) = %d, want %d", got, c)
		}
	}
	if got := b.book(50, 50); got != 50 {
		t.Errorf("book(50) = %d, want 50 (below the full run)", got)
	}
	if got := b.book(200, 50); got != 3100 {
		t.Errorf("book(200) = %d, want 3100 (just past the full run)", got)
	}
}

// headTailRing is the occupancy ring as the snapshot encoding describes
// it: explicit head, tail and fill. A push fills the tail slot until the
// ring is full, then recycles the head slot.
type headTailRing struct {
	buf              []uint64
	head, tail, fill int
}

func (m *headTailRing) push(v uint64) {
	if m.fill < len(m.buf) {
		m.buf[m.tail] = v
		m.tail = (m.tail + 1) % len(m.buf)
		m.fill++
		return
	}
	m.buf[m.head] = v
	m.head = (m.head + 1) % len(m.buf)
}

// TestRingWrapNonPowerOfTwo exercises ring push/oldest against a plain
// slice FIFO at every size from 1 to 13, most with no power-of-two
// structure, where a masked wrap would corrupt indices. At every fill
// level oldest() must read 0 while the ring fills (the zero-filled slot
// the next push takes, which never binds a dispatch) and the FIFO head
// once it is full, and appendRing must encode the slots, head, tail and
// fill a head/tail/fill model of the ring holds.
func TestRingWrapNonPowerOfTwo(t *testing.T) {
	for size := 1; size <= 13; size++ {
		r := newRing(size)
		model := headTailRing{buf: make([]uint64, size)}
		var fifo []uint64
		rng := rand.New(rand.NewSource(int64(size)))
		v := uint64(1) // every release the core pushes is at least 1
		for i := 0; i < 10*size+17; i++ {
			want := uint64(0)
			if len(fifo) == size {
				want = fifo[0]
			}
			if got := r.oldest(); got != want {
				t.Fatalf("size=%d step=%d fill=%d: oldest() = %d, want %d", size, i, len(fifo), got, want)
			}

			var enc []byte
			enc = binary.LittleEndian.AppendUint64(enc, uint64(size))
			for _, c := range model.buf {
				enc = binary.LittleEndian.AppendUint64(enc, c)
			}
			for _, x := range []int{model.head, model.tail, model.fill} {
				enc = binary.LittleEndian.AppendUint64(enc, uint64(x))
			}
			if got := appendRing(nil, r); !bytes.Equal(got, enc) {
				t.Fatalf("size=%d step=%d: appendRing = %v, model (head %d, tail %d, fill %d) encodes %v",
					size, i, got, model.head, model.tail, model.fill, enc)
			}

			if len(fifo) == size {
				fifo = fifo[1:]
			}
			fifo = append(fifo, v)
			r.push(v)
			model.push(v)
			v += uint64(rng.Intn(9))
		}
	}
}

// TestBookingMonotoneMatchesReference drives the cursor, a LinearTiming
// reference ring (with each request as its own floor), and the test's
// independent reference with identical clamped request streams — the
// non-decreasing-by-construction shape the fetch/dispatch/commit tables
// see, stall jumps included — and requires bit-equal results. Afterwards
// the cursor must equal the linear ring's newest slot, which is what a
// LinearTiming core's snapshot reads in its place.
func TestBookingMonotoneMatchesReference(t *testing.T) {
	for _, limit := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(91 + limit)))
		k := newCursor(limit)
		lin := newBooking(limit)
		ref := newRefBooking(limit)
		earliest := uint64(1)
		last := uint64(0)
		for i := 0; i < 200_000; i++ {
			switch rng.Intn(100) {
			case 0:
				earliest += uint64(rng.Intn(5000)) // stall-like jump
			default:
				earliest += uint64(rng.Intn(3))
			}
			req := earliest
			if req < last {
				req = last // callers clamp by the previous result
			}
			got, want := k.book(req), ref.book(req)
			if got != want {
				t.Fatalf("limit=%d step=%d cursor book(%d) = %d, reference = %d",
					limit, i, req, got, want)
			}
			if lg := lin.book(req, req); lg != want {
				t.Fatalf("limit=%d step=%d linear book(%d) = %d, reference = %d",
					limit, i, req, lg, want)
			}
			last = got
		}
		if got, want := k, refCursor(lin, last); got != want {
			t.Fatalf("limit=%d cursor %+v, linear ring's newest slot %+v", limit, got, want)
		}
	}
}

// BenchmarkBooking measures the reservation shapes the timing core
// produces (informational in scripts/bench_smoke.sh). chain is a port
// table fed mostly-monotonic earliest cycles, the common issue stream,
// where each probe lands on its first cycle. There is no long-run shape:
// a port probe starts at or above its floor, and no fully booked run
// there is longer than (ROBSize-1)/limit cycles (see booking.book).
func BenchmarkBooking(b *testing.B) {
	b.Run("chain", func(b *testing.B) {
		bk := newBooking(4)
		for i := 0; i < b.N; i++ {
			bk.book(uint64(i), uint64(i))
		}
	})
	// The cursor (fetch/dispatch/commit tables).
	b.Run("monotone/chain", func(b *testing.B) {
		k := newCursor(4)
		for i := 0; i < b.N; i++ {
			k.book(uint64(i))
		}
	})
	b.Run("monotone/lockstep", func(b *testing.B) {
		// Width-limited fill: four requests land per cycle, the common
		// dispatch/commit shape.
		k := newCursor(4)
		var last uint64
		for i := 0; i < b.N; i++ {
			last = k.book(last)
		}
	})
}

// TestStoreQueueBulkRetire drives the store queue via its core-level
// helpers: pushes with ascending commit cycles, then a search far in the
// future must bulk-retire everything in O(1) and report no forwarding.
func TestStoreQueueBulkRetire(t *testing.T) {
	c := newTestCore()
	for i := uint64(0); i < 10; i++ {
		c.pushStoreQ(0x1000+i*8, 8, 50+i, 100+i)
	}
	if c.storeQLive != 10 {
		t.Fatalf("live = %d, want 10", c.storeQLive)
	}
	// In the forwarding window: the newest overlapping store forwards.
	if fwd, ready, commit := c.searchStoreQ(0x1000, 8, 60); !fwd || ready != 50 || commit != 100 {
		t.Errorf("search in window = (%v,%d,%d), want (true,50,100)", fwd, ready, commit)
	}
	// A late-issuing load past every commit gets no forwarding, but the
	// entries survive: a later, earlier-issuing load may still want them.
	if fwd, _, _ := c.searchStoreQ(0x1000, 8, 500); fwd {
		t.Error("search past all commits still forwarded")
	}
	if c.storeQLive != 10 {
		t.Errorf("live after late-load search = %d, want 10 (no destructive retire)", c.storeQLive)
	}
	// Once dispatch has moved past every commit, one probe retires the
	// whole queue.
	c.lastDispatch = 500
	if fwd, _, _ := c.searchStoreQ(0x1000, 8, 501); fwd {
		t.Error("search after dispatch passed all commits still forwarded")
	}
	if c.storeQLive != 0 {
		t.Errorf("live after bulk retire = %d, want 0", c.storeQLive)
	}
	// And later pushes start a fresh generation.
	c.pushStoreQ(0x2000, 8, 600, 700)
	if fwd, ready, _ := c.searchStoreQ(0x2000, 8, 650); !fwd || ready != 600 {
		t.Errorf("post-retire search = (%v,%d), want (true,600)", fwd, ready)
	}
}

// TestStoreQueueLazyRetire: a search that passes the address filter
// reclaims entries it walks over once dispatch has passed their commit,
// without disturbing live ones.
func TestStoreQueueLazyRetire(t *testing.T) {
	c := newTestCore()
	c.pushStoreQ(0x1000, 8, 50, 100) // dead for everyone once lastDispatch >= 100
	c.pushStoreQ(0x2000, 8, 160, 200)
	c.lastDispatch = 149
	// Overlaps only the dead store: it must not forward, and the walk
	// reclaims it (its commit is behind the dispatch cursor).
	if fwd, _, _ := c.searchStoreQ(0x1000, 8, 150); fwd {
		t.Error("committed store forwarded")
	}
	if c.storeQLive != 1 {
		t.Errorf("live = %d, want 1 (dead entry retired, live one kept)", c.storeQLive)
	}
	if fwd, ready, _ := c.searchStoreQ(0x2000, 8, 150); !fwd || ready != 160 {
		t.Errorf("live store = (%v,%d), want (true,160)", fwd, ready)
	}
}

// TestStoreQueuePartialOverlapWaitsForDrain: a mis-sized overlap cannot
// forward — the queue reports no forwarding but holds the load until the
// store's commit (ready = commit), after which the caller probes the
// cache. The old model counted these as forwards and skipped the probe,
// deflating D-cache demand statistics.
func TestStoreQueuePartialOverlapWaitsForDrain(t *testing.T) {
	c := newTestCore()
	c.pushStoreQ(0x1000, 8, 50, 100)
	fwd, ready, commit := c.searchStoreQ(0x1004, 8, 60) // bytes 4-11 vs 0-7
	if fwd {
		t.Error("partial overlap must not forward")
	}
	if ready != 100 || commit != 100 {
		t.Errorf("partial overlap = (ready %d, commit %d), want (100, 100)", ready, commit)
	}
}

// TestStoreQueueLateLoadPreservesForwarding: issue cycles are not
// monotonic in program order. A load that issues long after every store
// commit (stalled on a dependence chain) must not destroy forwarding
// state, because the next load can issue earlier — inside a store's
// forwarding window — and is still entitled to forward.
func TestStoreQueueLateLoadPreservesForwarding(t *testing.T) {
	c := newTestCore()
	c.pushStoreQ(0x1000, 8, 1500, 2000)
	c.lastDispatch = 10 // dispatch cursor far behind the store's commit

	// The late load (chain-stalled to cycle 5000) gets no forwarding...
	if fwd, _, _ := c.searchStoreQ(0x1000, 8, 5000); fwd {
		t.Error("load issued after commit forwarded")
	}
	// ...but the next load, issuing at cycle 300 < commit 2000, must
	// still forward from the in-flight store.
	if fwd, ready, _ := c.searchStoreQ(0x1000, 8, 300); !fwd || ready != 1500 {
		t.Errorf("early-issuing load = (%v,%d), want (true,1500): late load destroyed the queue", fwd, ready)
	}
}
