package mem

import (
	"math/rand"
	"testing"
)

// TestSnapshotKeepsWrappingStore: a store that wraps past 2^64 between
// two Snapshots is in the second one, so a memory restored from it reads
// the stored bytes at address 0.
func TestSnapshotKeepsWrappingStore(t *testing.T) {
	m := New()
	m.Snapshot()
	m.Write(1<<64-4, 8, 0x1122334455667788)
	st := m.Snapshot()
	fresh := New()
	fresh.Restore(st)
	if v := fresh.Read(0, 4); v != 0x11223344 {
		t.Errorf("restored Read(0, 4) = %#x, want 0x11223344", v)
	}
	if v := fresh.Read(1<<64-4, 4); v != 0x55667788 {
		t.Errorf("restored Read(2^64-4, 4) = %#x, want 0x55667788", v)
	}
}

// samePages requires m's page map to hold exactly st's page pointers.
func samePages(t *testing.T, label string, m *Memory, st *State) {
	t.Helper()
	if len(m.pages) != len(st.pages) {
		t.Errorf("%s: memory holds %d pages, State %d", label, len(m.pages), len(st.pages))
	}
	copies := 0
	for pn, p := range st.pages {
		if m.pages[pn].p != p {
			copies++
		}
	}
	if copies > 0 {
		t.Errorf("%s: %d of %d pages are copies, not the State's", label, copies, len(st.pages))
	}
}

// TestSnapshotRestoreSharePages: neither Snapshot nor Restore copies a
// page. On a memory mapping 1,024 image pages, 200 of them written,
// right after either one the memory and the State hold the same pointer
// for every page; the next write to a page gives the memory a new copy
// and leaves the State's bytes alone; and Restore allocates only the page
// map, not 1,024 pages.
func TestSnapshotRestoreSharePages(t *testing.T) {
	const base, n, written = 1 << 30, 1024, 200
	img := make([]byte, n*PageSize)
	rand.New(rand.NewSource(1)).Read(img)
	m := New()
	m.MapImage(base, img)
	for i := range written {
		// 5 is coprime to n, so the 200 pages are distinct.
		m.Write(base+uint64(i*5%n)*PageSize+8, 8, uint64(i))
	}
	if got := len(m.MappedPages()); got != n {
		t.Fatalf("%d pages mapped, want %d", got, n)
	}

	// writeApart writes page i of mem, which must get a new copy of it
	// while st keeps its bytes.
	writeApart := func(label string, mem *Memory, st *State, i int) {
		t.Helper()
		pn, addr := uint64(base/PageSize+i), base+uint64(i)*PageSize+16
		before, shared := mem.pages[pn].p, *st.pages[pn]
		mem.Write(addr, 8, ^uint64(0))
		if mem.pages[pn].p == before {
			t.Errorf("%s: the write to page %#x landed in place", label, pn)
		}
		if *st.pages[pn] != shared {
			t.Errorf("%s: the write changed the State's page %#x", label, pn)
		}
		if v := mem.Read(addr, 8); v != ^uint64(0) {
			t.Errorf("%s: Read after the write = %#x", label, v)
		}
	}

	st := m.Snapshot()
	samePages(t, "Snapshot", m, st)
	writeApart("after Snapshot", m, st, 5) // a page written before Snapshot
	writeApart("after Snapshot", m, st, 6) // an image page

	m.Restore(st)
	samePages(t, "Restore", m, st)
	fresh := New()
	fresh.Restore(st)
	samePages(t, "Restore into a fresh memory", fresh, st)
	writeApart("after Restore", fresh, st, 5)
	writeApart("after Restore", m, st, 6)

	if a := testing.AllocsPerRun(10, func() { fresh.Restore(st) }); a >= 64 {
		t.Errorf("Restore of %d pages allocates %.0f times, want fewer than 64", n, a)
	}
}
