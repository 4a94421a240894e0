package serve

import (
	"sync"

	"repro/internal/machine"
)

// PoolStats counts pool activity.
type PoolStats struct {
	Created  uint64 // machines built because the pool was empty
	Reused   uint64 // machines served from the idle list
	Recycled uint64 // machines reset and returned to the idle list
	Dropped  uint64 // machines discarded because the idle list was full
}

// PoolSet is a free list of simulated machines. Building a machine
// allocates megabytes of cache, predictor, and predecode state; a debug
// service creating and destroying sessions at high rate would spend its
// time in the allocator without one. Put resets the machine
// (machine.Machine.Reset) before parking it, so Get always returns a
// machine that is bit-identical to a freshly constructed one of the same
// configuration — TestPoolRecycledMachineEquivalentToFresh and
// TestPoolSetRecycledPerKeyEquivalentToFresh hold the set to exactly
// that.
//
// It recycles machines of many configurations: one idle list per
// machine.Config (all subsystem configs are comparable, so the config
// itself is the key), with one idle capacity and one reservation counter
// shared across every key. Sessions with different machines therefore
// recycle independently — a Get only ever returns a machine built with
// exactly the requested configuration, preserving the bit-identical-
// recycle invariant per key — while total idle memory stays bounded no
// matter how many distinct configurations clients bring.
//
// The reservation counter covers the window where Put has passed the cap
// check but is still resetting the machine outside the lock. It is
// deliberately owned by the set, not the per-key idle list: a concurrent
// Get/Put pair may insert or empty a key's list (resizing the map)
// between Put's two critical sections, and a counter living in an idle
// map entry could be dropped with it, leaking the reservation and
// silently shrinking the cap. TestPoolSetConcurrentPerKey hammers
// exactly that interleaving.
type PoolSet struct {
	mu       sync.Mutex
	cap      int
	idle     map[machine.Config][]*machine.Machine
	nIdle    int // total parked machines across all keys
	reserved int // Puts past the cap check, resetting outside the lock
	stats    PoolStats
}

// NewPoolSet builds a pool set that keeps at most capacity idle machines
// in total, across all configurations. capacity <= 0 keeps none.
func NewPoolSet(capacity int) *PoolSet {
	return &PoolSet{
		cap:  max(capacity, 0),
		idle: make(map[machine.Config][]*machine.Machine),
	}
}

// Get returns an idle machine with exactly the given configuration, or
// builds a new one.
func (ps *PoolSet) Get(cfg machine.Config) *machine.Machine {
	ps.mu.Lock()
	if list := ps.idle[cfg]; len(list) > 0 {
		n := len(list)
		m := list[n-1]
		list[n-1] = nil
		if n == 1 {
			delete(ps.idle, cfg) // keep the map tight as configs come and go
		} else {
			ps.idle[cfg] = list[:n-1]
		}
		ps.nIdle--
		ps.stats.Reused++
		ps.mu.Unlock()
		return m
	}
	ps.stats.Created++
	ps.mu.Unlock()
	// Build outside the lock: machine construction is the expensive part.
	return machine.New(cfg)
}

// Put resets m and parks it under its own configuration; when the shared
// idle budget is exhausted the machine is discarded without paying for
// the reset. The caller transfers ownership of m.
func (ps *PoolSet) Put(m *machine.Machine) {
	if m == nil {
		return
	}
	ps.mu.Lock()
	if ps.nIdle+ps.reserved >= ps.cap {
		ps.stats.Dropped++
		ps.mu.Unlock()
		return
	}
	ps.reserved++
	ps.stats.Recycled++
	ps.mu.Unlock()

	m.Reset()

	ps.mu.Lock()
	ps.reserved--
	ps.idle[m.Cfg] = append(ps.idle[m.Cfg], m)
	ps.nIdle++
	ps.mu.Unlock()
}

// discard records a machine dropped without being parked (e.g. a faulted
// session's broken machine), so Put accounting stays complete.
func (ps *PoolSet) discard() {
	ps.mu.Lock()
	ps.stats.Dropped++
	ps.mu.Unlock()
}

// Stats returns a snapshot of pool activity, aggregated across keys.
func (ps *PoolSet) Stats() PoolStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.stats
}

// Idle returns how many machines are parked across all configurations.
func (ps *PoolSet) Idle() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.nIdle
}

// IdleByConfig returns the parked-machine count per configuration — the
// per-preset pool breakdown surfaced in ServerStats.PoolByConfig and the
// dise_pool_idle_preset gauge.
func (ps *PoolSet) IdleByConfig() map[machine.Config]int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.idle) == 0 {
		return nil
	}
	out := make(map[machine.Config]int, len(ps.idle))
	for cfg, list := range ps.idle {
		out[cfg] = len(list)
	}
	return out
}

// Configs returns how many distinct configurations currently have parked
// machines.
func (ps *PoolSet) Configs() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.idle)
}
