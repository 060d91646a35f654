// Package qstore is the repository's unified query-store subsystem: one
// generic prefix-trie store behind every memo layer of the learning stack.
// The learner's output-query memo and dedup sets, Polca's policy-output and
// probe memos, CacheQuery's query-result cache (the LevelDB role) and the
// synthesizer's witness dedup are all instances of the same Store,
// differing only in key type, per-node payload and degree.
//
// # Layout
//
// A Store is one trie whose nodes live in a flat arena; node 0 is the
// root, standing for the empty prefix. Prefix walks — answer a query from
// its longest recorded prefix — follow Child from the root.
//
// A Store is not synchronized. A store shared between goroutines is
// guarded by its owner's mutex (Polca's oracle and the synthesizer's
// witness pool); a store owned by one goroutine (the learner's memo, a
// CacheQuery frontend's result cache) costs no lock at all.
//
// # Edges
//
// Edge labels are small non-negative integers. A store with a fixed
// degree indexes child slices directly by symbol; a dynamic store
// (degree 0) interns raw labels into dense edge ids in first-use order,
// so one legitimately huge label (a high block-universe index) cannot
// amplify every node's child array.
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
// Val returns a pointer into the node arena so callers can decorate nodes
// in place (Polca keeps a simulator's table state in its payload); such
// decorations are the caller's to maintain and are skipped by snapshots.
// Arena pointers are invalidated by the next Extend/Ensure — re-read
// instead of holding them across inserts.
package qstore

import "fmt"

// Key is the symbol type of a store's keys: words over small non-negative
// integers (input symbols, dense block ids, interned codes).
type Key interface{ ~int | ~int32 | ~int64 }

// node is one key prefix in the store's arena. Children live in the
// store's flat child arena (see arena.go): childOff is the block offset in
// the node's size class, childLen the number of valid entries, and
// childOff < 0 means no children yet.
type node[V any] struct {
	childOff int32
	childLen int32
	mark     uint32 // epoch stamp (set membership)
	set      bool   // val has been recorded
	val      V
}

// Store is a prefix-trie store. See the package comment for the layout;
// New for construction.
type Store[K Key, V any] struct {
	degree int
	epoch  uint32
	dense  map[K]int32 // raw edge label -> dense id (dynamic stores only)
	edges  []K         // dense id -> raw edge label (dynamic stores only)
	nodes  []node[V]
	arenas [][]int32  // child blocks, one flat arena per size class
	free   []freebits // freed blocks per class, for reuse
}

// New builds an empty store. degree fixes the edge fanout: symbols are
// 0..degree-1 and child slices are indexed directly. Degree 0 selects
// dynamic edges, interned into dense ids in first-use order.
func New[K Key, V any](degree int) *Store[K, V] {
	if degree < 0 {
		panic(fmt.Sprintf("qstore: negative degree %d", degree))
	}
	s := &Store[K, V]{
		degree: degree,
		epoch:  1,
		nodes:  []node[V]{{childOff: -1}},
	}
	if degree == 0 {
		s.dense = make(map[K]int32)
	}
	return s
}

// Degree returns the fixed edge fanout (0 for dynamic stores).
func (s *Store[K, V]) Degree() int { return s.degree }

// inRange reports whether every symbol of key is a valid edge label of a
// fixed-degree store. Dynamic stores accept any label.
func (s *Store[K, V]) inRange(key []K) bool {
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

// Child returns the child of n along edge a, or -1 when absent.
func (s *Store[K, V]) Child(n int32, a K) int32 {
	var e int32
	if s.dense == nil {
		if int64(a) < 0 || int64(a) >= int64(s.degree) {
			return -1
		}
		e = int32(a)
	} else {
		var ok bool
		if e, ok = s.dense[a]; !ok {
			return -1
		}
	}
	nd := &s.nodes[n]
	if nd.childOff < 0 || e >= nd.childLen {
		return -1
	}
	return s.arenas[s.classOf(nd.childLen)][nd.childOff+e]
}

// Extend returns the child of n along edge a, creating it if absent.
func (s *Store[K, V]) Extend(n int32, a K) int32 {
	var e int32
	if s.dense == nil {
		if int64(a) < 0 || int64(a) >= int64(s.degree) {
			panic(fmt.Sprintf("qstore: edge %d out of range for degree %d", int64(a), s.degree))
		}
		e = int32(a)
	} else {
		var ok bool
		if e, ok = s.dense[a]; !ok {
			e = int32(len(s.edges))
			s.dense[a] = e
			s.edges = append(s.edges, a)
		}
	}
	// Fixed-degree stores allocate the full fanout on first use; dynamic
	// stores grow to the power-of-two class covering the edges seen, and
	// blocks outgrown by reallocation return to the freebits bitmap.
	want := e + 1
	if s.dense == nil {
		want = int32(s.degree)
	}
	if nd := &s.nodes[n]; nd.childOff < 0 {
		nd.childOff = s.allocBlock(s.classOf(want))
		nd.childLen = want
	} else if e >= nd.childLen {
		oldClass := s.classOf(nd.childLen)
		newClass := s.classOf(want)
		if newClass != oldClass {
			off := s.allocBlock(newClass)
			nd = &s.nodes[n] // arena append does not move nodes, but re-read for clarity
			copy(s.arenas[newClass][off:off+nd.childLen], s.arenas[oldClass][nd.childOff:nd.childOff+nd.childLen])
			s.freeBlock(oldClass, nd.childOff)
			nd.childOff = off
		}
		// Entries between the old and new length are -1 already: blocks
		// are -1-initialized at allocation and never shrink.
		nd.childLen = want
	}
	nd := &s.nodes[n]
	slot := nd.childOff + e
	class := s.classOf(nd.childLen)
	if c := s.arenas[class][slot]; c != -1 {
		return c
	}
	id := int32(len(s.nodes))
	s.nodes = append(grow(s.nodes, 1), node[V]{childOff: -1})
	s.arenas[class][slot] = id
	return id
}

// Find walks key from the root, returning its node or -1.
func (s *Store[K, V]) Find(key []K) int32 {
	n := int32(0)
	for _, a := range key {
		if n = s.Child(n, a); n < 0 {
			return -1
		}
	}
	return n
}

// Ensure walks key from the root, creating the path as needed. The
// existing part of the path is followed with Child, which skips Extend's
// growth checks.
func (s *Store[K, V]) Ensure(key []K) int32 {
	n := int32(0)
	for i, a := range key {
		c := s.Child(n, a)
		if c < 0 {
			for _, a := range key[i:] {
				n = s.Extend(n, a)
			}
			return n
		}
		n = c
	}
	return n
}

// Has reports whether node n holds a recorded value.
func (s *Store[K, V]) Has(n int32) bool { return s.nodes[n].set }

// Val returns a pointer to n's value in the arena, whether or not it is
// recorded — callers decorate values in place. The pointer is invalidated
// by the next Extend/Ensure.
func (s *Store[K, V]) Val(n int32) *V { return &s.nodes[n].val }

// SetHas marks n's value as recorded after in-place mutation through Val.
func (s *Store[K, V]) SetHas(n int32) { s.nodes[n].set = true }

// Mark adds n to the current epoch's set, reporting true on first insert.
func (s *Store[K, V]) Mark(n int32) bool {
	if s.nodes[n].mark == s.epoch {
		return false
	}
	s.nodes[n].mark = s.epoch
	return true
}

// ResetMarks starts a new epoch, emptying the mark set in O(1). Recorded
// values are untouched.
func (s *Store[K, V]) ResetMarks() { s.epoch++ }

// Get returns the recorded value at key.
func (s *Store[K, V]) Get(key []K) (V, bool) {
	n := s.Find(key)
	if n < 0 || !s.nodes[n].set {
		var zero V
		return zero, false
	}
	return s.nodes[n].val, true
}

// Set records v at key, reporting whether the key was previously unset.
func (s *Store[K, V]) Set(key []K, v V) bool {
	nd := &s.nodes[s.Ensure(key)]
	fresh := !nd.set
	nd.val, nd.set = v, true
	return fresh
}

// InsertMark adds key to the current epoch's set, reporting true on first
// insertion (the streaming-dedup primitive).
func (s *Store[K, V]) InsertMark(key []K) bool { return s.Mark(s.Ensure(key)) }

// NodeCount returns the node count, root included — a capacity/diagnostic
// figure, not a value count.
func (s *Store[K, V]) NodeCount() int { return len(s.nodes) }
