package polca

// The oracle's two memo layers over the shared query store
// (internal/qstore).
//
// The output store is keyed by *policy inputs*: every node is one
// policy-input prefix, recording the policy output of its last symbol.
// Any output query is answered symbol by symbol from its longest recorded
// prefix — the whole prefix costs zero prober work. On a compiled
// simulator oracle every recorded node also holds the table state its
// prefix reaches, so a query that diverges at depth k resumes from the
// node at depth k and executes only the suffix, replacing the quadratic
// reset-rooted prefix replay with O(1) prober work per new symbol.
//
// The probe store is keyed by *block ids*: it is the reset-rooted
// (hardware-style) probe memo plus single-flight, and the node of an
// Evct's prefix also records its eviction group's victim. The store's
// dense edge interning keeps child arrays sized by the blocks actually
// seen.
//
// Both stores are lock-striped by first symbol, so probe-path workers over
// a ConcurrentProber recording words in different subtrees never contend;
// the simulator engine serializes on the oracle's engine mutex and holds
// one word's shard while it answers that word. Table states are the
// oracle's decoration on the output store's values: snapshots skip them,
// and LoadSnapshot recomputes them.

import (
	"repro/internal/cache"
	"repro/internal/qstore"
)

// outVal is the per-node payload of the policy-output store. It holds no
// pointers, so the garbage collector never scans the store's node arrays.
type outVal struct {
	out   int16 // policy output of the prefix's last symbol
	state int32 // compiled simulator oracles: the table state the prefix reaches
}

// probeVal is the per-node payload of the block-id probe store.
type probeVal struct {
	fl     *inflightProbe // single-flight slot while the node's probe or eviction group executes
	oc     cache.Outcome  // memoized final outcome
	victim int8           // 1 + the recorded victim of the eviction group rooted here, 0 if none
}

// probeShard is the locked view of one probe-store shard.
type probeShard = qstore.Shard[int32, probeVal]
