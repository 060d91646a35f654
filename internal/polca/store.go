package polca

// The oracle's two memo layers over the shared query store
// (internal/qstore).
//
// The output store is keyed by *policy inputs*: every node is one
// policy-input prefix, recording the policy output of its last symbol.
// Any output query is answered symbol by symbol from its longest recorded
// prefix — the whole prefix costs zero prober work — and, for simulator
// probers, a node can additionally pin a live Session parked
// in exactly the cache state the prefix reaches. A query that diverges at
// depth k forks the deepest parked ancestor and executes only the suffix,
// replacing the quadratic reset-rooted prefix replay with amortized O(1)
// prober work per new symbol.
//
// The probe store is keyed by *block ids*: it is the reset-rooted
// (hardware-style) probe memo plus single-flight, with the store's dense
// edge interning keeping child arrays sized by the blocks actually seen.
//
// Both stores are lock-striped by first symbol, so probe-path workers over
// a ConcurrentProber recording words in different subtrees never contend;
// the simulator engine serializes on the oracle's engine mutex and takes a
// shard lock only to read or record. Session parking is a decoration on
// the output store's values — the store knows nothing about sessions,
// snapshots skip them, and the LRU bookkeeping below is the oracle's, kept
// per shard and guarded by that shard's lock.

import (
	"repro/internal/cache"
	"repro/internal/qstore"
)

// outVal is the per-node payload of the policy-output store.
type outVal struct {
	out        int16   // policy output of the prefix's last symbol
	sess       Session // parked session in the prefix's cache state, or nil
	prev, next int32   // per-shard LRU links, meaningful while sess != nil
}

// probeVal is the per-node payload of the block-id probe store.
type probeVal struct {
	fl *inflightProbe // single-flight slot while a probe is executing
	oc cache.Outcome  // memoized final outcome
}

// outShard is the locked view of one output-store shard.
type outShard = qstore.Shard[int, outVal]

// lruList is one shard's parked-session LRU bookkeeping. It is guarded by
// the shard's own lock: every caller below holds the shard.
type lruList struct {
	head, tail int32 // most/least recently used parked node, -1 if none
	parked     int
}

// lruOf returns the LRU list of the shard (callers hold the shard).
func (o *Oracle) lruOf(sh *outShard) *lruList { return &o.lru[sh.Index()] }

// unlink removes n from its shard's LRU list (n must be parked).
func (o *Oracle) unlink(sh *outShard, n int32) {
	l := o.lruOf(sh)
	v := sh.Val(n)
	p, x := v.prev, v.next
	if p != -1 {
		sh.Val(p).next = x
	} else {
		l.head = x
	}
	if x != -1 {
		sh.Val(x).prev = p
	} else {
		l.tail = p
	}
	v.prev, v.next = -1, -1
}

// pushFront makes n the most recently used parked node of its shard.
func (o *Oracle) pushFront(sh *outShard, n int32) {
	l := o.lruOf(sh)
	v := sh.Val(n)
	v.prev = -1
	v.next = l.head
	if l.head != -1 {
		sh.Val(l.head).prev = n
	}
	l.head = n
	if l.tail == -1 {
		l.tail = n
	}
}

// touch refreshes n's LRU recency (no-op when n holds no session).
func (o *Oracle) touch(sh *outShard, n int32) {
	if sh.Val(n).sess == nil || o.lruOf(sh).head == n {
		return
	}
	o.unlink(sh, n)
	o.pushFront(sh, n)
}

// park pins s at node n, replacing any session already parked there, and
// evicts the shard's least recently used sessions while over its budget
// (the global session cap divided evenly across shards).
func (o *Oracle) park(sh *outShard, n int32, s Session) {
	if sh.Val(n).sess != nil {
		o.unpark(sh, n)
	}
	sh.Val(n).sess = s
	o.pushFront(sh, n)
	l := o.lruOf(sh)
	l.parked++
	for l.parked > o.lruCap && l.tail != -1 {
		o.unpark(sh, l.tail)
	}
}

// unpark drops the session parked at n (n must hold one).
func (o *Oracle) unpark(sh *outShard, n int32) {
	o.unlink(sh, n)
	sh.Val(n).sess = nil
	o.lruOf(sh).parked--
}
