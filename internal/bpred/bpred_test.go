package bpred

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x1000)
	for i := 0; i < 8; i++ {
		p.UpdateCond(pc, true)
	}
	if !p.PredictCond(pc) {
		t.Error("should predict taken after training")
	}
	s := p.Stats()
	if s.CondBranches != 8 {
		t.Errorf("branches = %d", s.CondBranches)
	}
	if s.CondMispredict == 0 || s.CondMispredict > 3 {
		t.Errorf("mispredicts = %d, want a small warm-up count", s.CondMispredict)
	}
}

func TestLearnsAlternatingViaGshare(t *testing.T) {
	// A strictly alternating branch is hard for bimodal but trivially
	// captured by gshare once the chooser learns to prefer it.
	p := New(DefaultConfig())
	pc := uint64(0x2000)
	taken := false
	mispredLate := 0
	for i := 0; i < 400; i++ {
		taken = !taken
		if p.UpdateCond(pc, taken) && i > 200 {
			mispredLate++
		}
	}
	if mispredLate > 10 {
		t.Errorf("gshare failed to capture alternation: %d late mispredicts", mispredLate)
	}
}

func TestBTB(t *testing.T) {
	p := New(DefaultConfig())
	if _, ok := p.PredictTarget(0x4000); ok {
		t.Error("cold BTB should miss")
	}
	p.UpdateTarget(0x4000, 0x8888)
	if tgt, ok := p.PredictTarget(0x4000); !ok || tgt != 0x8888 {
		t.Errorf("BTB = %#x, %v", tgt, ok)
	}
	// Update in place.
	p.UpdateTarget(0x4000, 0x9999)
	if tgt, _ := p.PredictTarget(0x4000); tgt != 0x9999 {
		t.Errorf("BTB update = %#x", tgt)
	}
}

func TestBTBReplacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBEntries = 8
	cfg.BTBAssoc = 2 // 4 sets
	p := New(cfg)
	// Three PCs in the same set (stride = sets*4 = 16 bytes).
	a, b, c := uint64(0x1000), uint64(0x1010), uint64(0x1020)
	p.UpdateTarget(a, 1)
	p.UpdateTarget(b, 2)
	p.PredictTarget(a) // refresh a
	p.UpdateTarget(c, 3)
	if _, ok := p.PredictTarget(b); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if tgt, ok := p.PredictTarget(a); !ok || tgt != 1 {
		t.Error("a should survive")
	}
}

func TestRAS(t *testing.T) {
	p := New(DefaultConfig())
	if _, ok := p.PopRAS(); ok {
		t.Error("empty RAS should miss")
	}
	p.PushRAS(0x100)
	p.PushRAS(0x200)
	if v, ok := p.PopRAS(); !ok || v != 0x200 {
		t.Errorf("pop = %#x, %v", v, ok)
	}
	if v, ok := p.PopRAS(); !ok || v != 0x100 {
		t.Errorf("pop = %#x, %v", v, ok)
	}
}

func TestRASWraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 4
	p := New(cfg)
	for i := 1; i <= 6; i++ {
		p.PushRAS(uint64(i * 0x10))
	}
	// Deepest two entries were overwritten; top of stack is still correct.
	if v, _ := p.PopRAS(); v != 0x60 {
		t.Errorf("pop = %#x, want 0x60", v)
	}
	if v, _ := p.PopRAS(); v != 0x50 {
		t.Errorf("pop = %#x, want 0x50", v)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on non-power-of-two table")
		}
	}()
	New(Config{PredEntries: 1000, BTBEntries: 2048, BTBAssoc: 4, RASEntries: 8, HistoryBits: 8})
}

// refBTB is the stamp-LRU reference for the BTB: per-set entry slices
// with a tag, a valid bit and a recency stamp from a clock that advances
// on every hit and every update. A miss fills an invalid way if the set
// has one, else the way with the smallest stamp.
type refBTB struct {
	sets  [][]refBTBEntry
	clock uint64
	stats Stats
}

type refBTBEntry struct {
	tag, target, lru uint64
	valid            bool
}

func newRefBTB(entries, assoc int) *refBTB {
	sets := make([][]refBTBEntry, entries/assoc)
	for i := range sets {
		sets[i] = make([]refBTBEntry, assoc)
	}
	return &refBTB{sets: sets}
}

func (r *refBTB) lookup(pc uint64) ([]refBTBEntry, uint64) {
	return r.sets[(pc>>2)&uint64(len(r.sets)-1)], (pc >> 2) / uint64(len(r.sets))
}

func (r *refBTB) predict(pc uint64) (uint64, bool) {
	r.stats.TargetLookups++
	set, tag := r.lookup(pc)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			r.clock++
			set[i].lru = r.clock
			return set[i].target, true
		}
	}
	r.stats.TargetMisses++
	return 0, false
}

func (r *refBTB) update(pc, target uint64) {
	set, tag := r.lookup(pc)
	r.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].target = target
			set[i].lru = r.clock
			return
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = refBTBEntry{tag: tag, target: target, valid: true, lru: r.clock}
}

// TestBTBMatchesReference drives the recency-ordered BTB and the
// stamp-LRU reference with one random stream of PredictTarget and
// UpdateTarget calls over PCs that alias in every set, on the default
// 2048x4 BTB, smaller and wider shapes, and the no-bpred preset's single
// entry, comparing every prediction and the statistics.
func TestBTBMatchesReference(t *testing.T) {
	for _, shape := range [][2]int{{2048, 4}, {16, 4}, {64, 2}, {64, 8}, {1, 1}} {
		entries, assoc := shape[0], shape[1]
		t.Run(fmt.Sprintf("%dx%d", entries, assoc), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.BTBEntries, cfg.BTBAssoc = entries, assoc
			f := func(seed uint64) bool {
				p := New(cfg)
				ref := newRefBTB(entries, assoc)
				x := seed | 1
				for i := 0; i < 16*entries+2000; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					// Twice as many PCs as entries, unaligned ones among
					// them: the low two bits neither index nor tag.
					pc := 0x1000 + (x>>8)%uint64(8*entries)
					if x%3 == 0 {
						target := x >> 32
						p.UpdateTarget(pc, target)
						ref.update(pc, target)
						continue
					}
					gt, gok := p.PredictTarget(pc)
					wt, wok := ref.predict(pc)
					if gt != wt || gok != wok {
						t.Logf("seed %#x op %d pc %#x: btb=(%#x, %v) ref=(%#x, %v)", seed, i, pc, gt, gok, wt, wok)
						return false
					}
				}
				if p.Stats() != ref.stats {
					t.Logf("stats diverged: btb=%+v ref=%+v", p.Stats(), ref.stats)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
