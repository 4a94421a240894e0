// Package bpred models the front-end branch prediction hardware from the
// paper's §5 configuration: an 8K-entry hybrid predictor (bimodal and
// gshare components with a chooser), a 2K-entry BTB with LRU replacement
// (each set kept in recency order), and a return-address stack.
package bpred

// Config sizes the predictor structures. All counts must be powers of two.
type Config struct {
	PredEntries int // entries in each of bimodal, gshare, and chooser
	HistoryBits int // gshare global-history length
	BTBEntries  int
	BTBAssoc    int
	RASEntries  int
}

// DefaultConfig matches the paper: 8K-entry hybrid predictor, 2K-entry BTB.
func DefaultConfig() Config {
	return Config{
		PredEntries: 8192,
		HistoryBits: 12,
		BTBEntries:  2048,
		BTBAssoc:    4,
		RASEntries:  32,
	}
}

// Stats counts prediction outcomes.
type Stats struct {
	CondBranches   uint64
	CondMispredict uint64
	TargetLookups  uint64
	TargetMisses   uint64
}

// A btbWay is one BTB way: key is the branch PC with its two low bits
// set (a PC's low bits never index or tag, and a valid way's key is never
// 0), target the predicted target. The zero btbWay is invalid.
type btbWay struct {
	key, target uint64
}

// Predictor is the complete front-end prediction unit. Not safe for
// concurrent use.
type Predictor struct {
	cfg Config

	bimodal []uint8 // 2-bit counters
	gshare  []uint8
	chooser []uint8 // 2-bit: >=2 means "use gshare"
	history uint64

	// btb holds the BTB's sets flat, set-major, each set in recency
	// order: most recently used first, the victim last.
	btb      []btbWay
	btbAssoc int
	btbMask  uint64 // set count - 1

	ras    []uint64
	rasTop int

	stats Stats
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	if cfg.PredEntries&(cfg.PredEntries-1) != 0 || cfg.BTBEntries&(cfg.BTBEntries-1) != 0 {
		panic("bpred: table sizes must be powers of two")
	}
	n := cfg.PredEntries
	p := &Predictor{
		cfg:      cfg,
		bimodal:  make([]uint8, n),
		gshare:   make([]uint8, n),
		chooser:  make([]uint8, n),
		btb:      make([]btbWay, cfg.BTBEntries),
		btbAssoc: cfg.BTBAssoc,
		btbMask:  uint64(cfg.BTBEntries/cfg.BTBAssoc - 1),
		ras:      make([]uint64, cfg.RASEntries),
	}
	p.Reset()
	return p
}

// Stats returns prediction statistics.
func (p *Predictor) Stats() Stats { return p.stats }

// Reset returns the predictor to its post-New state (New ends by calling
// it): all direction counters weakly not-taken, global history and BTB
// empty, the return-address stack cleared, and statistics rezeroed. A
// recycled predictor predicts bit-identically to a fresh one.
func (p *Predictor) Reset() {
	for i := range p.bimodal {
		p.bimodal[i] = 1 // weakly not-taken
		p.gshare[i] = 1
		p.chooser[i] = 1
	}
	p.history = 0
	clear(p.btb)
	clear(p.ras)
	p.rasTop = 0
	p.stats = Stats{}
}

func (p *Predictor) index(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.PredEntries-1))
}

func (p *Predictor) gshareIndex(pc uint64) int {
	mask := uint64(p.cfg.PredEntries - 1)
	hist := p.history & ((1 << uint(p.cfg.HistoryBits)) - 1)
	return int(((pc >> 2) ^ hist) & mask)
}

// PredictCond predicts the direction of a conditional branch at pc.
func (p *Predictor) PredictCond(pc uint64) bool {
	i := p.index(pc)
	g := p.gshareIndex(pc)
	if p.chooser[i] >= 2 {
		return p.gshare[g] >= 2
	}
	return p.bimodal[i] >= 2
}

// UpdateCond trains the predictor with the actual outcome of a conditional
// branch and records misprediction statistics.
func (p *Predictor) UpdateCond(pc uint64, taken bool) (mispredicted bool) {
	i := p.index(pc)
	g := p.gshareIndex(pc)
	bPred := p.bimodal[i] >= 2
	gPred := p.gshare[g] >= 2
	pred := bPred
	if p.chooser[i] >= 2 {
		pred = gPred
	}
	p.stats.CondBranches++
	if pred != taken {
		p.stats.CondMispredict++
	}
	bump := func(c *uint8, up bool) {
		if up && *c < 3 {
			*c++
		} else if !up && *c > 0 {
			*c--
		}
	}
	bump(&p.bimodal[i], taken)
	bump(&p.gshare[g], taken)
	if bPred != gPred {
		bump(&p.chooser[i], gPred == taken)
	}
	p.history <<= 1
	if taken {
		p.history |= 1
	}
	return pred != taken
}

// btbFind returns the ways of pc's BTB set, pc's key, and the index of
// the way that holds the key, or len(set) on a miss.
func (p *Predictor) btbFind(pc uint64) ([]btbWay, uint64, int) {
	base := int((pc>>2)&p.btbMask) * p.btbAssoc
	set, key := p.btb[base:base+p.btbAssoc], pc|3
	for i, w := range set {
		if w.key == key {
			return set, key, i
		}
	}
	return set, key, len(set)
}

// btbPush writes w at the front of set, shifting the others down one; the
// way shifted out of the back is dropped.
func btbPush(set []btbWay, w btbWay) {
	for i := range set {
		set[i], w = w, set[i]
	}
}

// PredictTarget looks up the BTB for an indirect-jump target prediction.
// Its hit path is btbHit, which keeps PredictTarget small enough to
// inline into the core's jump execution.
func (p *Predictor) PredictTarget(pc uint64) (target uint64, ok bool) {
	p.stats.TargetLookups++
	if target, ok = p.btbHit(pc); !ok {
		p.stats.TargetMisses++
	}
	return target, ok
}

// btbHit returns the target in pc's BTB way and makes the way its set's
// most recently used; ok is false if pc has no way.
func (p *Predictor) btbHit(pc uint64) (target uint64, ok bool) {
	set, _, i := p.btbFind(pc)
	if i == len(set) {
		return 0, false
	}
	w := set[i]
	btbPush(set[:i+1], w)
	return w.target, true
}

// UpdateTarget installs or refreshes a BTB entry as its set's most
// recently used; an install evicts the least recently used way, the last.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	set, key, i := p.btbFind(pc)
	btbPush(set[:min(i+1, len(set))], btbWay{key: key, target: target})
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(retAddr uint64) {
	p.ras[p.rasTop%len(p.ras)] = retAddr
	p.rasTop++
}

// PopRAS predicts a return target.
func (p *Predictor) PopRAS() (uint64, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}
