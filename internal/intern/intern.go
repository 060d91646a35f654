// Package intern provides dense integer interning of values, pairs, and
// integer words. It is the shared signature machinery of the prefix-tree
// query engine: the learner interns observation-table rows, the Mealy
// minimizer interns partition-refinement signatures, and the CacheQuery
// result store interns query keys — all without building a single string.
//
// Ids are issued from one counter, so a value id never collides with a pair
// id and pair chaining is injective: two integer sequences fold to the same
// id if and only if they are equal. Interners are not safe for concurrent
// use; callers that share one guard it themselves.
package intern

// Empty is the id of the empty word, the seed of every fold.
const Empty int32 = 0

type pairKey struct{ a, b int32 }

// Interner maps arbitrary int values and (id, id) pairs to dense int32 ids.
type Interner struct {
	vals  map[int]int32
	pairs map[pairKey]int32
	next  int32
}

// New returns an empty interner. Id 0 is reserved for the empty word.
func New() *Interner {
	return &Interner{
		vals:  make(map[int]int32),
		pairs: make(map[pairKey]int32),
		next:  1,
	}
}

// Len returns the number of ids issued (excluding Empty).
func (it *Interner) Len() int { return int(it.next) - 1 }

// Value interns a leaf value.
func (it *Interner) Value(v int) int32 {
	if id, ok := it.vals[v]; ok {
		return id
	}
	id := it.next
	it.next++
	it.vals[v] = id
	return id
}

// Pair interns an ordered pair of ids.
func (it *Interner) Pair(a, b int32) int32 {
	k := pairKey{a, b}
	if id, ok := it.pairs[k]; ok {
		return id
	}
	id := it.next
	it.next++
	it.pairs[k] = id
	return id
}

// Append folds one more value onto a word id: Append(Word(w), v) == Word(w·v).
func (it *Interner) Append(acc int32, v int) int32 {
	return it.Pair(acc, it.Value(v))
}

// Word interns an integer word by pair chaining from Empty.
func (it *Interner) Word(w []int) int32 {
	acc := Empty
	for _, v := range w {
		acc = it.Append(acc, v)
	}
	return acc
}
