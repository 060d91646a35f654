// Package qstore is the repository's unified query-store subsystem: one
// generic, lock-striped, shard-per-subtree prefix-trie store behind every
// memo layer of the learning stack. The learner's output-query memo and
// dedup sets, Polca's policy-output and probe memos, and CacheQuery's
// query-result cache (the LevelDB role) are all instances of the same
// Store, differing only in key type, per-node payload, and concurrency
// options.
//
// # Shard layout
//
// A Store partitions its key space into shards by the first symbol of
// each key: every key whose first symbol maps to shard i lives entirely
// inside shard i's node arena, as a full path from that
// shard's local root (the local empty prefix). Each shard carries its own
// mutex, so concurrent operations on keys in different subtrees never
// contend — this is what lets batched oracle workers record answers in
// parallel where a single store-wide mutex would serialize them.
//
// Every non-empty prefix of a key routes to the key's own shard, so
// prefix walks — answer a query from its longest recorded prefix — are
// well-defined entirely within one shard, under one lock acquisition.
//
// # Edges
//
// Edge labels are small non-negative integers. A store with a fixed
// Degree indexes child slices directly by symbol; a dynamic store
// (Degree == 0) interns raw labels per shard into dense edge ids in
// first-use order, so one legitimately huge label (a high block-universe
// index) cannot amplify every node's child array.
//
// # Epoch marks
//
// Every node carries an epoch stamp, turning any store into a reusable
// dedup set: ResetMarks empties the set in O(1), Mark/InsertMark report
// first insertion. Marks are transient — they are not snapshotted.
//
// # Values
//
// Nodes hold a value of the store's payload type V plus a "set" flag.
// Val returns a pointer into the shard's arena so callers can decorate
// nodes in place (Polca parks live simulator sessions and LRU links in
// its payload); such decorations are the caller's to maintain and are
// skipped by snapshots. Arena pointers are invalidated by the next
// Extend/Ensure on the same shard — re-read instead of holding them
// across inserts.
package qstore

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Key is the symbol type of a store's keys: words over small non-negative
// integers (input symbols, dense block ids, interned codes).
type Key interface{ ~int | ~int32 | ~int64 }

// Options configures a Store.
type Options struct {
	// Degree fixes the edge fanout: symbols are 0..Degree-1 and child
	// slices are indexed directly. 0 selects dynamic edges, interned
	// per shard into dense ids in first-use order.
	Degree int
	// Stripes is the number of lock-striped shards. <= 1 collapses the
	// store to a single shard (one lock — the pre-striping behaviour).
	Stripes int
	// Sync makes Acquire lock the shard. Leave false for stores owned
	// by a single goroutine (the serial learner's memo): operations
	// then cost no atomics beyond the epoch read.
	Sync bool
}

// node is one key prefix in a shard's arena. Children live in the shard's
// flat child arena (see arena.go): childOff is the block offset in the
// node's size class, childLen the number of valid entries, and
// childOff < 0 means no children yet.
type node[V any] struct {
	childOff int32
	childLen int32
	mark     uint32 // epoch stamp (set membership)
	set      bool   // val has been recorded
	val      V
}

// Shard is one lock-striped subtree of a Store. Node ids are local to the
// shard; node 0 is the shard's root, standing for the empty prefix. All
// methods require the shard to be held (Acquire on a Sync store; by the
// owning goroutine otherwise).
type Shard[K Key, V any] struct {
	mu     sync.Mutex
	st     *Store[K, V]
	idx    int
	dense  map[K]int32 // raw edge label -> dense id (dynamic stores only)
	edges  []K         // dense id -> raw edge label (dynamic stores only)
	nodes  []node[V]
	arenas [][]int32  // child blocks, one flat arena per size class
	free   []freebits // freed blocks per class, for reuse
}

// Store is a sharded prefix-trie store. See the package comment for the
// layout; New for construction.
type Store[K Key, V any] struct {
	degree int
	sync   bool
	epoch  atomic.Uint32
	shards []Shard[K, V]
}

// New builds an empty store.
func New[K Key, V any](opt Options) *Store[K, V] {
	if opt.Stripes < 1 {
		opt.Stripes = 1
	}
	if opt.Degree < 0 {
		panic(fmt.Sprintf("qstore: negative degree %d", opt.Degree))
	}
	s := &Store[K, V]{
		degree: opt.Degree,
		sync:   opt.Sync,
		shards: make([]Shard[K, V], opt.Stripes),
	}
	s.epoch.Store(1)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.st = s
		sh.idx = i
		sh.nodes = []node[V]{{childOff: -1}}
		if opt.Degree == 0 {
			sh.dense = make(map[K]int32)
		}
	}
	return s
}

// Degree returns the fixed edge fanout (0 for dynamic stores).
func (s *Store[K, V]) Degree() int { return s.degree }

// Stripes returns the number of shards.
func (s *Store[K, V]) Stripes() int { return len(s.shards) }

// InRange reports whether every symbol of key is a valid edge label of a
// fixed-degree store. Dynamic stores accept any label.
func (s *Store[K, V]) InRange(key []K) bool {
	if s.degree == 0 {
		return true
	}
	for _, a := range key {
		if int64(a) < 0 || int64(a) >= int64(s.degree) {
			return false
		}
	}
	return true
}

// route returns the shard index of key, chosen by its first symbol. The
// empty key routes to shard 0.
func (s *Store[K, V]) route(key []K) int {
	n := len(s.shards)
	if n == 1 || len(key) == 0 {
		return 0
	}
	return int(uint64(key[0]) % uint64(n))
}

// Acquire returns the shard owning key, locked when the store is Sync.
// Every key with the same first symbol, including all of key's non-empty
// prefixes, lives in the returned shard. Callers must Release.
func (s *Store[K, V]) Acquire(key []K) *Shard[K, V] {
	return s.AcquireIdx(s.route(key))
}

// AcquireIdx acquires shard i directly (iteration, snapshots, stats).
func (s *Store[K, V]) AcquireIdx(i int) *Shard[K, V] {
	sh := &s.shards[i]
	if s.sync {
		sh.mu.Lock()
	}
	return sh
}

// Release unlocks the shard on a Sync store (no-op otherwise).
func (sh *Shard[K, V]) Release() {
	if sh.st.sync {
		sh.mu.Unlock()
	}
}

// Index returns the shard's index, e.g. for caller-side per-shard
// decorations (Polca's parked-session LRU lists).
func (sh *Shard[K, V]) Index() int { return sh.idx }

// Child returns the child of n along edge a, or -1 when absent.
func (sh *Shard[K, V]) Child(n int32, a K) int32 {
	var e int32
	if sh.dense == nil {
		if int64(a) < 0 || int64(a) >= int64(sh.st.degree) {
			return -1
		}
		e = int32(a)
	} else {
		var ok bool
		if e, ok = sh.dense[a]; !ok {
			return -1
		}
	}
	nd := &sh.nodes[n]
	if nd.childOff < 0 || e >= nd.childLen {
		return -1
	}
	return sh.arenas[sh.classOf(nd.childLen)][nd.childOff+e]
}

// Extend returns the child of n along edge a, creating it if absent.
func (sh *Shard[K, V]) Extend(n int32, a K) int32 {
	var e int32
	if sh.dense == nil {
		if int64(a) < 0 || int64(a) >= int64(sh.st.degree) {
			panic(fmt.Sprintf("qstore: edge %d out of range for degree %d", int64(a), sh.st.degree))
		}
		e = int32(a)
	} else {
		var ok bool
		if e, ok = sh.dense[a]; !ok {
			e = int32(len(sh.edges))
			sh.dense[a] = e
			sh.edges = append(sh.edges, a)
		}
	}
	// Fixed-degree stores allocate the full fanout on first use; dynamic
	// stores grow to the power-of-two class covering the edges seen, and
	// blocks outgrown by reallocation return to the freebits bitmap.
	want := e + 1
	if sh.dense == nil {
		want = int32(sh.st.degree)
	}
	if nd := &sh.nodes[n]; nd.childOff < 0 {
		nd.childOff = sh.allocBlock(sh.classOf(want))
		nd.childLen = want
	} else if e >= nd.childLen {
		oldClass := sh.classOf(nd.childLen)
		newClass := sh.classOf(want)
		if newClass != oldClass {
			off := sh.allocBlock(newClass)
			nd = &sh.nodes[n] // arena append does not move nodes, but re-read for clarity
			copy(sh.arenas[newClass][off:off+nd.childLen], sh.arenas[oldClass][nd.childOff:nd.childOff+nd.childLen])
			sh.freeBlock(oldClass, nd.childOff)
			nd.childOff = off
		}
		// Entries between the old and new length are -1 already: blocks
		// are -1-initialized at allocation and never shrink.
		nd.childLen = want
	}
	nd := &sh.nodes[n]
	slot := nd.childOff + e
	class := sh.classOf(nd.childLen)
	if c := sh.arenas[class][slot]; c != -1 {
		return c
	}
	id := int32(len(sh.nodes))
	sh.nodes = append(grow(sh.nodes, 1), node[V]{childOff: -1})
	sh.arenas[class][slot] = id
	return id
}

// Find walks key from the shard's root, returning its node or -1.
func (sh *Shard[K, V]) Find(key []K) int32 {
	n := int32(0)
	for _, a := range key {
		if n = sh.Child(n, a); n < 0 {
			return -1
		}
	}
	return n
}

// Ensure walks key from the shard's root, creating the path as needed. The
// existing part of the path is followed with Child, which skips Extend's
// growth checks.
func (sh *Shard[K, V]) Ensure(key []K) int32 {
	n := int32(0)
	for i, a := range key {
		c := sh.Child(n, a)
		if c < 0 {
			for _, a := range key[i:] {
				n = sh.Extend(n, a)
			}
			return n
		}
		n = c
	}
	return n
}

// Has reports whether node n holds a recorded value.
func (sh *Shard[K, V]) Has(n int32) bool { return sh.nodes[n].set }

// Val returns a pointer to n's value in the arena, whether or not it is
// recorded — callers decorate values in place. The pointer is invalidated
// by the next Extend/Ensure on this shard.
func (sh *Shard[K, V]) Val(n int32) *V { return &sh.nodes[n].val }

// Put records v at n, reporting whether the node was previously unset.
func (sh *Shard[K, V]) Put(n int32, v V) bool {
	fresh := !sh.nodes[n].set
	sh.nodes[n].val = v
	sh.nodes[n].set = true
	return fresh
}

// SetHas marks n's value as recorded after in-place mutation through Val.
func (sh *Shard[K, V]) SetHas(n int32) { sh.nodes[n].set = true }

// Mark adds n to the current epoch's set, reporting true on first insert.
func (sh *Shard[K, V]) Mark(n int32) bool {
	ep := sh.st.epoch.Load()
	if sh.nodes[n].mark == ep {
		return false
	}
	sh.nodes[n].mark = ep
	return true
}

// Len returns the shard's node count (including its root).
func (sh *Shard[K, V]) Len() int { return len(sh.nodes) }

// ResetMarks starts a new epoch, emptying every shard's mark set in O(1).
// Callers must not reset concurrently with marking. Recorded values are
// untouched.
func (s *Store[K, V]) ResetMarks() { s.epoch.Add(1) }

// Get returns the recorded value at key, acquiring the shard itself.
func (s *Store[K, V]) Get(key []K) (V, bool) {
	sh := s.Acquire(key)
	defer sh.Release()
	n := sh.Find(key)
	if n < 0 || !sh.nodes[n].set {
		var zero V
		return zero, false
	}
	return sh.nodes[n].val, true
}

// Set records v at key, reporting whether the key was previously unset.
func (s *Store[K, V]) Set(key []K, v V) bool {
	sh := s.Acquire(key)
	defer sh.Release()
	return sh.Put(sh.Ensure(key), v)
}

// InsertMark adds key to the current epoch's set, reporting true on first
// insertion (the streaming-dedup primitive).
func (s *Store[K, V]) InsertMark(key []K) bool {
	sh := s.Acquire(key)
	defer sh.Release()
	return sh.Mark(sh.Ensure(key))
}

// CountSet returns the number of recorded values across all shards.
func (s *Store[K, V]) CountSet() int {
	total := 0
	for i := range s.shards {
		sh := s.AcquireIdx(i)
		for n := range sh.nodes {
			if sh.nodes[n].set {
				total++
			}
		}
		sh.Release()
	}
	return total
}

// NodeCount returns the total node count across all shards (roots
// included) — a capacity/diagnostic figure, not a value count.
func (s *Store[K, V]) NodeCount() int {
	total := 0
	for i := range s.shards {
		sh := s.AcquireIdx(i)
		total += len(sh.nodes)
		sh.Release()
	}
	return total
}
