package synth

import (
	"sync"
	"sync/atomic"

	"repro/internal/qstore"
)

// witnessPool is the shared CEGIS evidence set of a parallel search: the
// seeded witness traces plus every counterexample any worker's product
// check has discovered. Publication is deduplicated through an
// epoch-marked qstore trie under mu (InsertMark reports first insertion),
// so two workers refuting different candidates with the same
// counterexample cost one pool entry. Readers take immutable copy-on-write
// snapshots: a worker refreshes its view once per skeleton chunk and
// prunes on the freshest evidence without ever blocking publishers.
//
// The pool only ever grows, and witness filtering is sound (every witness
// is an output of the target machine, so a trace-equivalent candidate
// survives any witness set). That is what keeps the parallel search
// deterministic: pool contents at a given moment vary with scheduling, but
// which candidates *verify* does not.
type witnessPool struct {
	mu    sync.Mutex
	dedup *qstore.Store[int, int32] // guarded by mu
	list  atomic.Pointer[[]witness]
}

// newWitnessPool builds a pool for witness words over numInputs symbols.
func newWitnessPool(numInputs int) *witnessPool {
	p := &witnessPool{dedup: qstore.New[int, int32](numInputs)}
	empty := []witness{}
	p.list.Store(&empty)
	return p
}

// publish adds w to the pool unless an identical word is already present,
// reporting whether the pool grew.
func (p *witnessPool) publish(w witness) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.dedup.InsertMark(w.word) {
		return false
	}
	old := *p.list.Load()
	next := make([]witness, len(old)+1)
	copy(next, old)
	next[len(old)] = w
	p.list.Store(&next)
	return true
}

// snapshot returns an immutable view of the current witness set.
func (p *witnessPool) snapshot() []witness { return *p.list.Load() }

// size returns the current witness count.
func (p *witnessPool) size() int { return len(*p.list.Load()) }
