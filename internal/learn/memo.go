package learn

// The learner's output-query memo over the shared query store
// (internal/qstore). Edges are input symbols; every node is one word. The
// memo plays three roles:
//
//   - Output memo: each node records the output of the last symbol of its
//     word, so the answer to any query whose word is a prefix of an
//     already-answered word is read off the path, with no string key
//     allocated per lookup.
//   - Exact-match store: PoolTeacher keeps full answer slices at terminal
//     nodes only, preserving its answered-word accounting (batch.go).
//   - Word set: the store's epoch marks turn it into a reusable dedup set
//     for suffix bookkeeping, conformance-suite streaming, and batch
//     prefetch, with no per-word key materialization.
//
// The learner runs on one goroutine, so its stores are unsynchronized
// single-shard instances; PoolTeacher's shared cache is the lock-striped
// variant (see batch.go).

import "repro/internal/qstore"

// memoVal is the per-node payload of the learner's output memo.
type memoVal struct {
	out  int   // output of the last symbol of the word ending here
	full []int // full output word, materialized lazily at queried nodes
}

// newMemoStore builds an unsynchronized single-shard store for the serial
// learner (memo and dedup sets alike pay no locking).
func newMemoStore(numIn int) *qstore.Store[int, memoVal] {
	return qstore.New[int, memoVal](qstore.Options{Degree: numIn})
}

// newMarkStore builds an unsynchronized dedup-set store.
func newMarkStore(numIn int) *qstore.Store[int, struct{}] {
	return qstore.New[int, struct{}](qstore.Options{Degree: numIn})
}

// trieOutputs returns the memoized output word of u·s if every symbol's
// output is recorded — including when u·s is a proper prefix of a longer
// answered word. The full slice is materialized at most once per node and
// reused, so repeated hits allocate nothing.
func (l *engine) trieOutputs(u, s []int) ([]int, bool) {
	total := len(u) + len(s)
	if total == 0 {
		return []int{}, true
	}
	head := u
	if len(head) == 0 {
		head = s
	}
	sh := l.memo.Acquire(head)
	defer sh.Release()
	n := int32(0)
	for _, a := range u {
		if n = sh.Child(n, a); n < 0 || !sh.Has(n) {
			return nil, false
		}
	}
	for _, a := range s {
		if n = sh.Child(n, a); n < 0 || !sh.Has(n) {
			return nil, false
		}
	}
	if f := sh.Val(n).full; f != nil {
		return f, true
	}
	out := make([]int, total)
	m := int32(0)
	for i := 0; i < total; i++ {
		a := 0
		if i < len(u) {
			a = u[i]
		} else {
			a = s[i-len(u)]
		}
		m = sh.Child(m, a)
		out[i] = sh.Val(m).out
	}
	sh.Val(n).full = out
	return out, true
}

// trieRecord stores the per-symbol outputs of w and the full answer slice
// at its terminal node. The caller hands over ownership of out.
func (l *engine) trieRecord(w, out []int) {
	if len(w) == 0 {
		return
	}
	sh := l.memo.Acquire(w)
	defer sh.Release()
	n := int32(0)
	for i, a := range w {
		n = sh.Extend(n, a)
		v := sh.Val(n)
		v.out = out[i]
		sh.SetHas(n)
	}
	sh.Val(n).full = out
}
