package debug

import (
	"bytes"
	"iter"
	"slices"
)

// evalExpr computes a watched expression's current value from simulated
// memory (the debugger-side evaluator used by the classifying backends;
// the DISE backend evaluates inside the application instead). A range's
// value, which its condition tests, is the quad at its base address.
func (d *Debugger) evalExpr(w *Watchpoint) uint64 {
	switch w.Kind {
	case WatchRange:
		return d.m.Mem.Read(w.Addr, 8)
	case WatchScalar:
		return d.m.Mem.Read(w.Addr, w.Size)
	case WatchIndirect:
		p := d.m.Mem.Read(w.Addr, 8)
		return d.m.Mem.Read(p, w.Size)
	case WatchExpr:
		var sum uint64
		for _, a := range w.Terms {
			sum += d.m.Mem.Read(a, 8)
		}
		return sum
	}
	return 0
}

// watchedRanges returns the address ranges whose modification could change
// the expression's value right now. A range [lo, hi) is never empty, and
// one that ends at the top of memory has hi wrapped to 0; its last byte
// hi-1 never wraps, so range arithmetic below works on last bytes.
func (d *Debugger) watchedRanges(w *Watchpoint) [][2]uint64 {
	switch w.Kind {
	case WatchScalar:
		return [][2]uint64{{w.Addr, w.Addr + uint64(w.Size)}}
	case WatchIndirect:
		p := d.m.Mem.Read(w.Addr, 8)
		return [][2]uint64{
			{w.Addr, w.Addr + 8},
			{p, p + uint64(w.Size)},
		}
	case WatchRange:
		return [][2]uint64{{w.Addr, w.Addr + w.Length}}
	case WatchExpr:
		out := make([][2]uint64, len(w.Terms))
		for i, a := range w.Terms {
			out[i] = [2]uint64{a, a + 8}
		}
		return out
	}
	return nil
}

// rangesOverlap reports whether the non-empty ranges [aLo, aHi) and
// [bLo, bHi) share a byte.
func rangesOverlap(aLo, aHi, bLo, bHi uint64) bool {
	return aLo <= bHi-1 && bLo <= aHi-1
}

// quads yields the aligned quads the non-empty range [lo, hi) touches,
// lo&^7 through (hi-1)&^7. Stopping at the last byte's quad, rather than
// at the first quad not below hi, keeps a range that ends at the top of
// memory from walking on past 2^64.
func quads(lo, hi uint64) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		last := (hi - 1) &^ 7
		for q := lo &^ 7; yield(q) && q != last; q += 8 {
		}
	}
}

// quadsOf returns the aligned quads of w's watched ranges.
func (d *Debugger) quadsOf(w *Watchpoint) []uint64 {
	var out []uint64
	for _, r := range d.watchedRanges(w) {
		out = slices.AppendSeq(out, quads(r[0], r[1]))
	}
	return out
}

// storeHits reports whether a store to [addr, addr+size) touches data the
// watchpoint depends on.
func (d *Debugger) storeHits(w *Watchpoint, addr uint64, size int) bool {
	for _, r := range d.watchedRanges(w) {
		if rangesOverlap(addr, addr+uint64(size), r[0], r[1]) {
			return true
		}
	}
	return false
}

// changed reports whether the watched expression differs from the
// debugger's snapshot, returning its new value.
func (d *Debugger) changed(w *Watchpoint) (bool, uint64) {
	v := d.evalExpr(w)
	if w.Kind == WatchRange {
		return !bytes.Equal(d.m.Mem.ReadBytes(w.Addr, int(w.Length)), d.prevRegion[w]), v
	}
	return v != d.prevScalar[w], v
}

// refresh updates the debugger's snapshot of the expression.
func (d *Debugger) refresh(w *Watchpoint) {
	if w.Kind == WatchRange {
		d.prevRegion[w] = d.m.Mem.ReadBytes(w.Addr, int(w.Length))
		return
	}
	d.prevScalar[w] = d.evalExpr(w)
}
