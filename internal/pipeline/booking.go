package pipeline

// The timing core books bandwidth-limited resources in two kinds of
// reservation table, chosen by the shape of their request streams:
//
//   - cursor: the fetch, dispatch, and commit slots. Their requests
//     never go backwards (the core clamps each by the previous result),
//     so the only cycle whose count can still change is the newest one,
//     and the whole table is that cycle and its count.
//   - booking: the ALU, multiplier, and load ports. Their requests move
//     back and forth across the window of in-flight uops, so the table
//     is a ring over absolute cycles, sized to hold that window exactly.

// cursor is the reservation table of a resource whose requests are
// non-decreasing: the newest booked cycle and how many reservations it
// holds. Every older cycle is behind every future request, so nothing
// else is kept.
type cursor struct {
	cycle        uint64
	count, limit uint16
}

func newCursor(limit int) cursor { return cursor{limit: uint16(limit)} }

// book reserves the first cycle >= earliest with free capacity and
// returns it: the cursor cycle while it has room, otherwise the next
// cycle at or after earliest. It must return exactly what bookRef returns
// on a ring fed the same stream (TestBookingMonotoneMatchesReference, and
// the LinearTiming cores in the machine-level differentials). It is kept
// small enough to inline at its three call sites.
func (k *cursor) book(earliest uint64) uint64 {
	if earliest <= k.cycle {
		if k.count < k.limit {
			k.count++
			return k.cycle
		}
		earliest = k.cycle + 1
	}
	k.cycle, k.count = earliest, 1
	return earliest
}

// reset returns the cursor to its post-newCursor state.
func (k *cursor) reset() { k.cycle, k.count = 0, 0 }

// bookingSlots is the ring size a port table starts at (and returns to on
// reset). It holds the live windows of the paper's kernels, which stay
// near 600 cycles on every preset; longer windows grow the ring instead
// of aliasing.
const bookingSlots = 1 << 10

// booking tracks per-cycle usage of a port (the ALU, multiplier, and load
// tables). It is a ring over absolute cycles: each slot remembers which
// cycle it counts for, so a probe matches only its own cycle and stale
// entries expire implicitly.
//
// Every request carries a floor: the lowest cycle any request to the
// table can still name (the core passes dispatchAt+1 — dispatch never
// moves backwards, and a uop issues after it dispatches). A booked cycle
// at or above the floor is live; one below it can never be probed again.
// Before a reservation writes a slot holding a different live cycle, the
// ring doubles and re-inserts its live entries (grow), so the ring never
// drops a live reservation: it always holds the table's exact state, at
// whatever size the live window needs. A probe only ever reads the slot
// of the cycle it asks about and only ever writes the slot of the cycle
// it reserves, so the result does not depend on the ring's size — the
// table answers exactly what an unbounded cycle → count map would.
//
// The event path keeps two edges between which per-cycle state cannot
// change:
//
//   - a known-full interval [fullLo, fullHi): every cycle in it has
//     reached the slot limit, and since a live cycle's count only ever
//     grows, a probe landing inside the interval jumps straight to fullHi
//     instead of re-walking the run;
//   - a next-free edge maxBooked: the highest cycle holding any booking,
//     so every cycle beyond it is known empty and a request arriving past
//     the edge reserves its own cycle with no probe at all.
//
// bookRef is the retained linear reference: same reservation semantics
// and the same growth rule, no edges consulted or maintained. The
// differential property tests run both against identical request
// streams; they must return identical cycles and leave identical rings
// behind.
type booking struct {
	cycle []uint64
	count []uint16
	limit uint16

	// linear routes book through bookRef (Config.LinearTiming): the
	// reference core must never consult an edge.
	linear bool

	// fullLo/fullHi bound the known-full interval: every cycle in
	// [fullLo, fullHi) holds limit bookings. Empty when fullLo >= fullHi.
	fullLo, fullHi uint64

	// maxBooked is the next-free edge: no cycle above it holds a booking.
	// It never decreases, and the ring does not keep it (its slot may
	// have expired below the floor), so the snapshot carries it.
	maxBooked uint64
}

func newBooking(limit int, linear bool) *booking {
	return &booking{
		cycle:  make([]uint64, bookingSlots),
		count:  make([]uint16, bookingSlots),
		limit:  uint16(limit),
		linear: linear,
	}
}

// book reserves the first cycle >= earliest with free capacity and returns
// it. floor must not exceed this or any later request. Interval
// maintenance runs only when the probe learned something (it walked past
// full cycles or filled c up). The interval check sits inside the loop so
// that a probe starting below fullLo still vaults the known-full run when
// it reaches it; every cycle in [start, c) is then full either by probing
// or by the interval, so the merge below stays sound.
func (b *booking) book(earliest, floor uint64) uint64 {
	if b.linear {
		return b.bookRef(earliest, floor)
	}
	if earliest > b.maxBooked {
		// Past the next-free edge: every cycle from earliest on is empty,
		// so the request reserves its own cycle without probing.
		b.maxBooked = earliest
		b.put(earliest, floor)
		if b.limit == 1 {
			b.noteFull(earliest, earliest+1)
		}
		return earliest
	}
	if b.limit == 1 {
		return b.book1(earliest, floor)
	}
	c := earliest
	start := c
	mask := uint64(len(b.cycle) - 1)
	var i uint64
	var n uint16
	for {
		if c >= b.fullLo && c < b.fullHi {
			c = b.fullHi // skip the cycles already known to be full
		}
		i = c & mask
		if b.cycle[i] != c {
			n = 0
			break
		}
		if n = b.count[i]; n < b.limit {
			break
		}
		c++
	}
	if n == 0 {
		b.put(c, floor)
	} else {
		b.count[i] = n + 1
	}
	if c > b.maxBooked {
		b.maxBooked = c
	}
	// [start, c) was just probed full; c itself may have filled up too.
	end := c
	if n+1 >= b.limit {
		end = c + 1
	}
	b.noteFull(start, end)
	return c
}

// book1 is book specialized for single-slot resources (limit == 1), the
// common port shape — e.g. the multiplier with the paper's configuration.
// A booked cycle is full by definition, so the probe never loads the count
// array (slot occupancy is just cycle[i] == c) and every reservation
// extends the known-full interval by exactly one cycle.
func (b *booking) book1(earliest, floor uint64) uint64 {
	c := earliest
	start := c
	mask := uint64(len(b.cycle) - 1)
	for {
		if c >= b.fullLo && c < b.fullHi {
			c = b.fullHi // skip the cycles already known to be full
		}
		if b.cycle[c&mask] != c {
			break
		}
		c++
	}
	b.put(c, floor)
	if c > b.maxBooked {
		b.maxBooked = c
	}
	b.noteFull(start, c+1)
	return c
}

// bookRef is the retained linear-reference reservation: probe upward from
// earliest one cycle at a time, consulting nothing but the ring itself.
// It must leave the ring bit-identical to what book leaves for the same
// request stream — the differential property tests and the LinearTiming
// cores depend on it. The edge fields are neither read nor written, so a
// reference core carries them at their zero values.
func (b *booking) bookRef(earliest, floor uint64) uint64 {
	c := earliest
	for {
		i := c & uint64(len(b.cycle)-1)
		if b.cycle[i] != c {
			b.put(c, floor)
			return c
		}
		if n := b.count[i]; n < b.limit {
			b.count[i] = n + 1
			return c
		}
		c++
	}
}

// put books the first reservation of cycle c, which holds none yet. Its
// slot may still hold another cycle: a dead one is overwritten, a live one
// (at or above floor, with a booking) first grows the ring.
func (b *booking) put(c, floor uint64) {
	i := c & uint64(len(b.cycle)-1)
	if d := b.cycle[i]; d != c && d >= floor && b.count[i] != 0 {
		i = b.grow(c, floor)
	}
	b.cycle[i] = c
	b.count[i] = 1
}

// grow doubles the ring until cycle c's slot is free, re-inserting the
// live entries and dropping the dead ones, and returns c's slot. Live
// cycles occupy distinct slots of a ring, and therefore of every larger
// one, so re-insertion never collides; c itself is not among them (put
// books only a cycle with no reservation yet).
func (b *booking) grow(c, floor uint64) uint64 {
	for {
		n := 2 * len(b.cycle)
		cycle, count := make([]uint64, n), make([]uint16, n)
		mask := uint64(n - 1)
		for i, d := range b.cycle {
			if d >= floor && b.count[i] != 0 {
				cycle[d&mask], count[d&mask] = d, b.count[i]
			}
		}
		b.cycle, b.count = cycle, count
		if i := c & mask; count[i] == 0 {
			return i
		}
	}
}

// noteFull records that every cycle in [start, end) is fully booked,
// merging with or replacing the known-full interval.
func (b *booking) noteFull(start, end uint64) {
	if end <= start {
		return
	}
	switch {
	case b.fullHi <= b.fullLo:
		// No prior knowledge: adopt the new run.
		b.fullLo, b.fullHi = start, end
	case start <= b.fullHi && end >= b.fullLo:
		// Overlapping or adjacent: merge.
		if start < b.fullLo {
			b.fullLo = start
		}
		if end > b.fullHi {
			b.fullHi = end
		}
	default:
		// Disjoint: keep the newer run — future probes cluster near it.
		b.fullLo, b.fullHi = start, end
	}
}

// reset returns the booking to its post-newBooking state, a grown ring
// included, so a recycled core equals a fresh one.
func (b *booking) reset() {
	if len(b.cycle) != bookingSlots {
		b.cycle = make([]uint64, bookingSlots)
		b.count = make([]uint16, bookingSlots)
	} else {
		clear(b.cycle)
		clear(b.count)
	}
	b.fullLo, b.fullHi = 0, 0
	b.maxBooked = 0
}

// ring is a fixed-size history of cycle timestamps, used to model
// structures whose occupancy limits dispatch (ROB, reservation stations,
// load/store queue): entry i of a size-N structure is free once the
// (i-N)th occupant released it.
type ring struct {
	buf []uint64
	pos int // next write index; the oldest entry's index once full
	n   int

	// edge is the occupancy event edge this ring imposes on dispatch: the
	// first cycle the oldest occupant's slot is free again (oldest()+1)
	// once the structure is full, 0 while it is still filling. push keeps
	// it current, so Core.time reads one word instead of re-deriving
	// fullness and the head entry per uop. It is a pure function of
	// (buf, pos, n), so restore reconstructs it instead of serializing
	// it (state.go).
	edge uint64
}

func newRing(size int) *ring {
	return &ring{buf: make([]uint64, size)}
}

// push records a release time and reports whether the occupancy edge
// moved. One write index covers both phases — while filling it is the
// next free slot, once full it is the oldest entry (which the push
// recycles in place) — so the old entry is never read back: the edge
// advances straight off the new oldest slot, and the common push where
// consecutive occupants release on the same cycle (a width-4 group
// commits together) reports no movement, letting the caller skip the
// structEdge refold entirely. Rings are pushed up to three times per uop
// (ROB, RS, LSQ), and sizes are not powers of two, so the wrap is a
// compare rather than a modulo.
func (r *ring) push(release uint64) (moved bool) {
	r.buf[r.pos] = release
	if r.pos++; r.pos == len(r.buf) {
		r.pos = 0
	}
	if r.n < len(r.buf) {
		if r.n++; r.n < len(r.buf) {
			return false
		}
	}
	if e := r.buf[r.pos] + 1; e != r.edge {
		r.edge = e
		return true
	}
	return false
}

// oldest returns the oldest release time without modifying the ring. The
// LinearTiming reference path reads occupancy through it; the event-edge
// path reads the precomputed edge instead.
func (r *ring) oldest() (uint64, bool) {
	if r.n < len(r.buf) {
		return 0, false
	}
	return r.buf[r.pos], true
}

// reset returns the ring to its post-newRing state.
func (r *ring) reset() {
	clear(r.buf)
	r.pos, r.n = 0, 0
	r.edge = 0
}
