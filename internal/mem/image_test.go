package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// imagePair drives two memories through the same operations: img puts its
// images in with MapImage, cp with WriteBytes. MapImage must be
// indistinguishable from WriteBytes through every reader.
type imagePair struct {
	t       *testing.T
	img, cp *Memory
	// hooks records each memory's write-hook calls.
	hooks [2][][2]uint64
	// images holds every image mapped so far and a copy of its bytes.
	images [][2][]byte
}

func newImagePair(t *testing.T) *imagePair {
	p := &imagePair{t: t, img: New(), cp: New()}
	for i, m := range []*Memory{p.img, p.cp} {
		m.AddWriteHook(func(lo, hi uint64) { p.hooks[i] = append(p.hooks[i], [2]uint64{lo, hi}) })
	}
	return p
}

func (p *imagePair) load(addr uint64, img []byte) {
	p.images = append(p.images, [2][]byte{img, bytes.Clone(img)})
	p.img.MapImage(addr, img)
	p.cp.WriteBytes(addr, img)
}

func (p *imagePair) write(addr uint64, size int, v uint64) {
	p.img.Write(addr, size, v)
	p.cp.Write(addr, size, v)
}

func (p *imagePair) writeBytes(addr uint64, b []byte) {
	p.img.WriteBytes(addr, b)
	p.cp.WriteBytes(addr, b)
}

func (p *imagePair) reset() {
	p.img.Reset()
	p.cp.Reset()
}

// snapshot snapshots both memories and requires equal encodings.
func (p *imagePair) snapshot(label string) (img, cp *State) {
	p.t.Helper()
	img, cp = p.img.Snapshot(), p.cp.Snapshot()
	if !bytes.Equal(img.AppendBinary(nil), cp.AppendBinary(nil)) {
		p.t.Fatalf("%s: Snapshot encodings differ (%d vs %d pages)", label, img.Pages(), cp.Pages())
	}
	return img, cp
}

func (p *imagePair) restore(img, cp *State) {
	p.img.Restore(img)
	p.cp.Restore(cp)
}

// check compares everything a reader sees over [lo, hi): the write
// hooks, MappedPages, ReadBytes, Read of every size at a spread of
// offsets, and Snapshot's encoding. Every image mapped so far must still
// hold its original bytes.
func (p *imagePair) check(label string, lo, hi uint64) {
	p.t.Helper()
	if !slices.Equal(p.hooks[0], p.hooks[1]) {
		p.t.Fatalf("%s: write hooks saw %v, copy-loaded %v", label, p.hooks[0], p.hooks[1])
	}
	if a, b := p.img.MappedPages(), p.cp.MappedPages(); !slices.Equal(a, b) {
		p.t.Fatalf("%s: MappedPages %v, copy-loaded %v", label, a, b)
	}
	if !bytes.Equal(p.img.ReadBytes(lo, int(hi-lo)), p.cp.ReadBytes(lo, int(hi-lo))) {
		p.t.Fatalf("%s: ReadBytes differ over [%#x, %#x)", label, lo, hi)
	}
	for a := lo; a < hi; a += 509 {
		for _, size := range []int{1, 2, 4, 8} {
			if x, y := p.img.Read(a, size), p.cp.Read(a, size); x != y {
				p.t.Fatalf("%s: Read(%#x, %d) = %#x, copy-loaded %#x", label, a, size, x, y)
			}
		}
	}
	p.snapshot(label)
	for i, im := range p.images {
		if !bytes.Equal(im[0], im[1]) {
			p.t.Fatalf("%s: image %d changed", label, i)
		}
	}
}

func randomImage(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestMapImageMatchesWriteBytes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const base = 16 * PageSize
	lo, hi := uint64(base-2*PageSize), uint64(base+10*PageSize)

	t.Run("straddling write", func(t *testing.T) {
		p := newImagePair(t)
		p.load(base, randomImage(r, 4*PageSize))
		p.check("loaded", lo, hi)
		// Neither page has been written: both are copied in by one store.
		p.write(base+PageSize-4, 8, 0x1122334455667788)
		p.check("straddle", lo, hi)
		p.write(base+2*PageSize+8, 8, 7)
		p.write(base+2*PageSize+8, 4, 9)
		p.check("rewrite", lo, hi)
	})

	t.Run("partial last page", func(t *testing.T) {
		p := newImagePair(t)
		p.load(base, randomImage(r, 3*PageSize+1234))
		p.check("loaded", lo, hi)
		p.write(base+3*PageSize+1230, 8, ^uint64(0)) // across the image's end
		p.write(base+3*PageSize+2000, 2, 5)          // past it, same page
		p.check("written", lo, hi)
	})

	t.Run("unaligned base", func(t *testing.T) {
		p := newImagePair(t)
		p.write(base+8, 8, 42) // before the image, on its first page
		p.write(base+2*PageSize, 4, 43)
		p.load(base+100, randomImage(r, 4*PageSize))
		p.check("loaded", lo, hi)
		p.write(base+100, 1, 1)
		p.write(base+3*PageSize-2, 4, 2)
		p.check("written", lo, hi)
	})

	t.Run("second load", func(t *testing.T) {
		p := newImagePair(t)
		img := randomImage(r, 5*PageSize)
		p.load(base, img)
		p.write(base+PageSize+16, 8, 1)
		p.write(base+4*PageSize, 8, 2)
		p.check("first", lo, hi)
		// The same image again, as the rewrite back end reloads its
		// transformed program: every written page reverts.
		p.load(base, img)
		p.check("same image", lo, hi)
		p.write(base+3*PageSize, 8, 3)
		// A shorter image two pages up: the first image's pages below it
		// keep their bytes.
		p.load(base+2*PageSize+8, randomImage(r, 2*PageSize))
		p.check("shifted image", lo, hi)
		p.write(base, 8, 4)
		p.write(base+3*PageSize+8, 8, 5)
		p.check("written", lo, hi)
		// No whole page: copied, and the mapped image stays.
		p.load(base+5, randomImage(r, 100))
		p.check("small image", lo, hi)
	})

	t.Run("reset", func(t *testing.T) {
		p := newImagePair(t)
		p.load(base, randomImage(r, 4*PageSize))
		p.write(base+PageSize, 8, 1)
		p.reset()
		p.check("reset", lo, hi)
		p.load(base+PageSize, randomImage(r, 2*PageSize))
		p.write(base+2*PageSize, 8, 2)
		p.check("reloaded", lo, hi)
	})

	t.Run("restore", func(t *testing.T) {
		p := newImagePair(t)
		p.load(base, randomImage(r, 4*PageSize+8))
		before, beforeCp := p.snapshot("before")
		p.write(base+PageSize+24, 8, 1) // the page's first write copies it
		after, afterCp := p.snapshot("after")
		p.write(base+2*PageSize, 8, 2)
		p.write(base+PageSize+24, 8, 3)
		p.check("written", lo, hi)
		p.restore(before, beforeCp)
		p.check("restored before", lo, hi)
		p.write(base+3*PageSize, 8, 4)
		p.check("written after restore", lo, hi)
		p.restore(after, afterCp)
		p.check("restored after", lo, hi)
		// A State outlives its memory: restore it into fresh ones.
		q := newImagePair(t)
		q.restore(after, afterCp)
		q.check("restored fresh", lo, hi)
	})
}

// TestMapImageRandomOps runs seeded random sequences of loads, stores,
// snapshots, restores and resets on both memories.
func TestMapImageRandomOps(t *testing.T) {
	const base = 64 * PageSize
	lo, hi := uint64(base-PageSize), uint64(base+12*PageSize)
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := newImagePair(t)
		var states [][2]*State
		addr := func() uint64 { return lo + uint64(r.Intn(int(hi-lo))) }
		for op := 0; op < 300; op++ {
			switch k := r.Intn(20); {
			case k == 0:
				p.load(addr(), randomImage(r, r.Intn(6*PageSize)+1))
			case k == 1:
				p.writeBytes(addr(), randomImage(r, r.Intn(2*PageSize)+1))
			case k == 2:
				a, b := p.snapshot("random")
				states = append(states, [2]*State{a, b})
			case k == 3 && len(states) > 0:
				s := states[r.Intn(len(states))]
				p.restore(s[0], s[1])
			case k == 4 && r.Intn(4) == 0:
				p.reset()
				states = nil
			default:
				p.write(addr(), []int{1, 2, 4, 8}[r.Intn(4)], r.Uint64())
			}
		}
		p.check("random", lo, hi)
	}
}
