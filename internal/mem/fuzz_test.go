package mem

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"testing"
)

// fuzzWindows are the bases of the address windows FuzzMemory's
// operations fall in, each four pages wide: the bottom of memory, the
// default data base, and the top, whose window wraps past 2^64 into the
// bottom's. Narrow windows keep the model, which a Snapshot clones,
// small.
var fuzzWindows = [...]uint64{0, 1 << 20, 1<<64 - 2*PageSize}

// fuzzModel is what a memory must read back: a flat byte map, and the
// pages a store has touched.
type fuzzModel struct {
	bytes map[uint64]byte
	pages map[uint64]bool
}

func newFuzzModel() fuzzModel {
	return fuzzModel{map[uint64]byte{}, map[uint64]bool{}}
}

func (md fuzzModel) clone() fuzzModel {
	return fuzzModel{maps.Clone(md.bytes), maps.Clone(md.pages)}
}

func (md fuzzModel) store(addr uint64, b []byte) {
	for i, v := range b {
		a := addr + uint64(i)
		md.bytes[a] = v
		md.pages[a>>pageShift] = true
	}
}

func (md fuzzModel) load(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = md.bytes[addr+uint64(i)]
	}
	return out
}

// fuzzBytes returns n bytes of a pattern keyed by seed.
func fuzzBytes(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed*13 + 1
	}
	return b
}

// FuzzMemory decodes its input into up to 64 operations of 5 bytes each
// on one of two memories: Write, WriteBytes, MapImage, Snapshot, Restore
// of any State saved so far (from either memory), Reset, Read and
// ReadBytes. Each memory is checked against a flat byte model: reads as
// they happen, then MappedPages and every mapped page at the end. Every
// saved State must still encode to its bytes at capture, every image
// must be unchanged, and no write hook may see an inverted page range.
//
// An operation is [op][window][offset lo][offset hi][x]: op&7 picks the
// operation and op&8 the memory; the address is the window's base plus
// the offset's low 14 bits; x picks the size (1<<(x&3)), the length
// (1+37x), the value or the State.
func FuzzMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		var mems [2]*Memory
		var mds [2]fuzzModel
		for i := range mems {
			mems[i], mds[i] = New(), newFuzzModel()
			mems[i].AddWriteHook(func(lo, hi uint64) {
				if lo > hi {
					t.Fatalf("memory %d: write hook saw the inverted range [%#x, %#x]", i, lo, hi)
				}
			})
		}
		type saved struct {
			st  *State
			enc []byte
			md  fuzzModel
		}
		var states []saved
		var images [][2][]byte
		for k := 0; k < 64 && len(ops) >= 5; k++ {
			op, x := ops[0], ops[4]
			off := (uint64(ops[2]) | uint64(ops[3])<<8) & (4*PageSize - 1)
			addr := fuzzWindows[int(ops[1])%len(fuzzWindows)] + off
			ops = ops[5:]
			i := op >> 3 & 1
			m, md := mems[i], mds[i]
			size, n := 1<<(x&3), 1+37*int(x)
			switch op & 7 {
			case 0:
				var b [8]byte
				v := uint64(x)*0x9E3779B97F4A7C15 + uint64(k)
				binary.LittleEndian.PutUint64(b[:], v)
				m.Write(addr, size, v)
				md.store(addr, b[:size])
			case 1:
				b := fuzzBytes(n, x)
				m.WriteBytes(addr, b)
				md.store(addr, b)
			case 2:
				img := fuzzBytes(n, ^x)
				images = append(images, [2][]byte{img, bytes.Clone(img)})
				m.MapImage(addr, img)
				md.store(addr, img)
			case 3:
				st := m.Snapshot()
				states = append(states, saved{st, st.AppendBinary(nil), md.clone()})
			case 4:
				if len(states) > 0 {
					s := states[int(x)%len(states)]
					m.Restore(s.st)
					mds[i] = s.md.clone()
				}
			case 5:
				m.Reset()
				mds[i] = newFuzzModel()
			case 6:
				var b [8]byte
				copy(b[:], md.load(addr, size))
				if got, want := m.Read(addr, size), binary.LittleEndian.Uint64(b[:]); got != want {
					t.Fatalf("op %d: memory %d Read(%#x, %d) = %#x, want %#x", k, i, addr, size, got, want)
				}
			case 7:
				if !bytes.Equal(m.ReadBytes(addr, n), md.load(addr, n)) {
					t.Fatalf("op %d: memory %d ReadBytes(%#x, %d) differs from the model", k, i, addr, n)
				}
			}
		}
		for i, m := range mems {
			pages := slices.Sorted(maps.Keys(mds[i].pages))
			if got := m.MappedPages(); !slices.Equal(got, pages) {
				t.Fatalf("memory %d: MappedPages %#x, want %#x", i, got, pages)
			}
			for _, pn := range pages {
				if !bytes.Equal(m.ReadBytes(pn<<pageShift, PageSize), mds[i].load(pn<<pageShift, PageSize)) {
					t.Fatalf("memory %d: page %#x differs from the model", i, pn)
				}
			}
		}
		for j, s := range states {
			if !bytes.Equal(s.st.AppendBinary(nil), s.enc) {
				t.Fatalf("State %d changed after capture", j)
			}
		}
		for j, im := range images {
			if !bytes.Equal(im[0], im[1]) {
				t.Fatalf("image %d changed", j)
			}
		}
	})
}
