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
// cycle at or after earliest. It must return exactly what booking.book
// returns on a ring fed the same stream (TestBookingMonotoneMatchesReference, and
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
type booking struct {
	cycle []uint64
	count []uint16
	limit uint16
}

func newBooking(limit int) *booking {
	return &booking{
		cycle: make([]uint64, bookingSlots),
		count: make([]uint16, bookingSlots),
		limit: uint16(limit),
	}
}

// book reserves the first cycle >= earliest with free capacity and returns
// it, probing upward one cycle at a time. floor must not exceed this or
// any later request.
//
// The walk is short in the core: a port probe starts at or above its
// floor, so it crosses only live cycles, and every live reservation
// belongs to a uop that has dispatched but not committed — at most
// ROBSize-1 of them besides the requester. A fully booked run is
// therefore at most (ROBSize-1)/limit cycles long: 127 for the default
// single multiplier.
func (b *booking) book(earliest, floor uint64) uint64 {
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
}

// ring is a fixed-size history of cycle timestamps, used to model
// structures whose occupancy limits dispatch (ROB, reservation stations,
// load/store queue): entry i of a size-N structure is free once the
// (i-N)th occupant released it.
//
// The ring keeps no fill count. A new or reset ring is zero-filled, and
// every release pushed is at least 1 (a commit or issue cycle), so a slot
// still holding 0 was never written: the ring is full exactly when the
// slot at pos is nonzero. A release of 0 never binds the core, whose
// every arrival is at least 1, so oldest needs no fill test either.
type ring struct {
	buf []uint64
	pos int // next write index; the oldest entry's index once full
}

func newRing(size int) *ring {
	return &ring{buf: make([]uint64, size)}
}

// push records a release time. One write index covers both phases —
// while filling it is the next free slot, once full it is the oldest
// entry, which the push recycles in place. Sizes are not powers of two,
// so the wrap is a compare rather than a modulo.
func (r *ring) push(release uint64) {
	r.buf[r.pos] = release
	if r.pos++; r.pos == len(r.buf) {
		r.pos = 0
	}
}

// oldest returns the release time in the slot the next push overwrites:
// the oldest occupant's once the structure is full, a new occupant
// entering the cycle after it, and 0 while the structure fills.
func (r *ring) oldest() uint64 { return r.buf[r.pos] }

// reset returns the ring to its post-newRing state.
func (r *ring) reset() {
	clear(r.buf)
	r.pos = 0
}
