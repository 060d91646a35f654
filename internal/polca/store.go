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
// Each store is one trie under its own oracle mutex: outMu guards the
// output store, ptMu the probe store and its single-flight slots. No code
// path holds both. The simulator engine answers a word under outMu (and
// the engine mutex that serializes its batches); the probe path takes each
// mutex only around a store walk or update, never across a probe, so
// fan-out workers over a ConcurrentProber wait on the hardware, not on
// each other. Table states are the oracle's decoration on the output
// store's values: snapshots skip them, and LoadSnapshot recomputes them.

import "repro/internal/cache"

// outVal is the per-node payload of the policy-output store. It holds no
// pointers, so the garbage collector never scans the store's node arrays.
type outVal struct {
	out   int16 // policy output of the prefix's last symbol
	state int32 // compiled simulator oracles: the table state the prefix reaches
}

// probeVal is the per-node payload of the block-id probe store. Like
// outVal it holds no pointers: a node's single-flight slot, while its
// probe or eviction group executes, lives in the oracle's inflight map.
type probeVal struct {
	oc     cache.Outcome // memoized final outcome
	victim int8          // 1 + the recorded victim of the eviction group rooted here, 0 if none
}
