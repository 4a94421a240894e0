package dise

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

// stampLRU is the replacement table as the engine once modelled it: one
// recency stamp per table index from a clock that advances on every
// touch (0 while the production's sequence is not resident), a count of
// resident instructions, and a scan for the smallest stamp to pick each
// victim. Engine.touchReplacement must charge exactly what it charges.
type stampLRU struct {
	cfg    Config
	prods  []*Production
	stamp  []uint64
	used   int
	clock  uint64
	misses uint64
}

func (r *stampLRU) install(p *Production) {
	r.prods = append(r.prods, p)
	r.stamp = append(r.stamp, 0)
}

func (r *stampLRU) remove(p *Production) bool {
	i := slices.Index(r.prods, p)
	if i < 0 {
		return false
	}
	if r.stamp[i] != 0 {
		r.used -= len(p.Replacement)
	}
	r.prods = slices.Delete(r.prods, i, i+1)
	r.stamp = slices.Delete(r.stamp, i, i+1)
	return true
}

func (r *stampLRU) clear() {
	r.prods, r.stamp, r.used = nil, nil, 0
}

func (r *stampLRU) reset() {
	r.clear()
	r.clock, r.misses = 0, 0
}

func (r *stampLRU) clone() *stampLRU {
	c := *r
	c.prods, c.stamp = slices.Clone(r.prods), slices.Clone(r.stamp)
	return &c
}

// touch charges an expansion of prods[i] and returns its refill penalty.
func (r *stampLRU) touch(i int) int {
	r.clock++
	if r.stamp[i] != 0 {
		r.stamp[i] = r.clock
		return 0
	}
	r.misses++
	need := len(r.prods[i].Replacement)
	if need > r.cfg.ReplacementInsts {
		return r.cfg.ReplMissPenalty
	}
	for r.used+need > r.cfg.ReplacementInsts {
		victim := -1
		for j, at := range r.stamp {
			if at != 0 && (victim < 0 || at < r.stamp[victim]) {
				victim = j
			}
		}
		r.stamp[victim] = 0
		r.used -= len(r.prods[victim].Replacement)
	}
	r.stamp[i] = r.clock
	r.used += need
	return r.cfg.ReplMissPenalty
}

// TestReplacementMatchesStampLRU drives an engine and the stamp-LRU
// reference through the same random streams of installs (one production
// may be installed twice), removes, clears, resets, snapshot restores
// and expansions, over replacement tables of 4 to 64 instructions. Each
// production matches only its own PC, so an expansion touches the first
// table index that holds it, as in the engine. Every expansion must wait
// the reference's penalty, and the miss counts must agree throughout.
func TestReplacementMatchesStampLRU(t *testing.T) {
	pc := func(k int) uint64 { return 0x8000 + 4*uint64(k) }
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{PatternEntries: 16, ReplacementInsts: 4 + r.Intn(61), ReplMissPenalty: 1 + r.Intn(40)}
		pool := make([]*Production, 10)
		for k := range pool {
			n := 1 + r.Intn(cfg.ReplacementInsts/2+1)
			if k == len(pool)-1 {
				n = cfg.ReplacementInsts + 1 + r.Intn(3) // never fits
			}
			pool[k] = &Production{Name: string(rune('a' + k)), Pattern: MatchPC(pc(k)),
				Replacement: slices.Repeat([]TemplateInst{TInst()}, n)}
		}
		twice := pool[r.Intn(len(pool))]
		e, ref := NewEngine(cfg), &stampLRU{cfg: cfg}
		var saved *State
		var savedRef *stampLRU

		for step := 0; step < 400; step++ {
			k := r.Intn(len(pool))
			p := pool[k]
			switch op := r.Intn(16); {
			case op < 2:
				if n := count(e.Productions(), p); n == 0 || (p == twice && n == 1) {
					if err := e.Install(p); err != nil {
						t.Fatal(err)
					}
					ref.install(p)
				}
			case op == 2:
				if e.Remove(p) != ref.remove(p) {
					t.Fatalf("seed %d step %d: Remove results differ", seed, step)
				}
			case op == 3 && r.Intn(4) == 0:
				e.Clear()
				ref.clear()
			case op == 4 && r.Intn(4) == 0:
				e.Reset()
				ref.reset()
			case op == 5:
				saved, savedRef = e.Snapshot(), ref.clone()
			case op == 6 && saved != nil:
				e.Restore(saved)
				ref = savedRef.clone()
			default:
				trigger := isa.ResolveUop(isa.Nop)
				var m Memo
				var exp Expansion
				got := e.ExpandMemo(&trigger, pc(k), &m, &exp)
				i := slices.Index(ref.prods, p)
				if got != (i >= 0) || (got && exp.Prod != p) {
					t.Fatalf("seed %d step %d: expansion at %#x = %v %v, reference holds it at %d",
						seed, step, pc(k), got, exp.Prod, i)
				}
				if !got {
					break
				}
				if want := ref.touch(i); exp.ExtraLatency != want {
					t.Fatalf("seed %d step %d: expanding %s waited %d, stamp LRU %d",
						seed, step, p.Name, exp.ExtraLatency, want)
				}
			}
			if got := e.Stats().ReplMisses; got != ref.misses {
				t.Fatalf("seed %d step %d: %d replacement misses, stamp LRU %d", seed, step, got, ref.misses)
			}
		}
	}
}

func count(prods []*Production, p *Production) (n int) {
	for _, q := range prods {
		if q == p {
			n++
		}
	}
	return n
}
