package mem

import (
	"slices"
	"testing"
)

func TestWriteHookReportsPageRanges(t *testing.T) {
	m := New()
	var lo, hi uint64
	calls := 0
	m.AddWriteHook(func(l, h uint64) { lo, hi, calls = l, h, calls+1 })

	m.Write(0x1008, 8, 1)
	if calls != 1 || lo != 1 || hi != 1 {
		t.Errorf("Write: calls=%d range=[%d,%d], want 1 call [1,1]", calls, lo, hi)
	}

	// A write straddling a page boundary must report both pages.
	m.Write(PageSize*2-4, 8, 1)
	if calls != 2 || lo != 1 || hi != 2 {
		t.Errorf("straddling Write: calls=%d range=[%d,%d], want [1,2]", calls, lo, hi)
	}

	m.WriteBytes(PageSize*5, make([]byte, 3*PageSize))
	if calls != 3 || lo != 5 || hi != 7 {
		t.Errorf("WriteBytes: calls=%d range=[%d,%d], want [5,7]", calls, lo, hi)
	}

	m.WriteBytes(0x9000, nil)
	if calls != 3 {
		t.Error("empty WriteBytes should not invoke the hook")
	}

	// Hooks chain: registering a second one must not detach the first.
	calls2 := 0
	m.AddWriteHook(func(l, h uint64) { calls2++ })
	m.Write(0x1000, 8, 2)
	if calls != 4 || calls2 != 1 {
		t.Errorf("chained hooks: calls=%d calls2=%d, want 4 and 1", calls, calls2)
	}
}

// TestWriteHookSplitsWrappingWrite: a store that wraps past 2^64 reaches
// the hooks as two ranges, the last page and page 0, never as an inverted
// one.
func TestWriteHookSplitsWrappingWrite(t *testing.T) {
	m := New()
	var got [][2]uint64
	m.AddWriteHook(func(lo, hi uint64) { got = append(got, [2]uint64{lo, hi}) })
	m.Write(1<<64-4, 8, 0x1122334455667788)
	if v := m.Read(0, 4); v != 0x11223344 {
		t.Errorf("Read(0, 4) = %#x, want 0x11223344", v)
	}
	m.WriteBytes(1<<64-PageSize-1, make([]byte, 3*PageSize))
	want := [][2]uint64{{maxPN, maxPN}, {0, 0}, {maxPN - 1, maxPN}, {0, 1}}
	if !slices.Equal(got, want) {
		t.Errorf("hook ranges %v, want %v", got, want)
	}
}

// TestPageCacheCoherent exercises the direct-mapped page-pointer cache:
// interleaved reads and writes across aliasing page numbers (same cache
// slot) must stay coherent with the page map.
func TestPageCacheCoherent(t *testing.T) {
	m := New()
	// Page numbers 8 apart alias to the same pcache slot.
	const stride = pcacheSize * PageSize
	addrs := []uint64{0x0, stride, 2 * stride, 0x1000, 0x1000 + stride}
	for i, a := range addrs {
		m.Write(a, 8, uint64(i)+100)
	}
	for i, a := range addrs {
		if got := m.Read(a, 8); got != uint64(i)+100 {
			t.Errorf("Read(%#x) = %d, want %d", a, got, i+100)
		}
	}
	// Re-read in reverse to force slot replacement in the other direction.
	for i := len(addrs) - 1; i >= 0; i-- {
		if got := m.Read(addrs[i], 8); got != uint64(i)+100 {
			t.Errorf("reverse Read(%#x) = %d, want %d", addrs[i], got, i+100)
		}
	}
}

func BenchmarkReadHot(b *testing.B) {
	m := New()
	m.Write(0x1000, 8, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Read(0x1000, 8)
	}
}

func BenchmarkWriteHot(b *testing.B) {
	m := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Write(0x1000, 8, uint64(i))
	}
}
