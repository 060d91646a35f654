package learn

// The learner's output-query memo: one prefix trie over the shared query
// store (internal/qstore). Edges are input symbols and every node is one
// word. A node holds one int32, the output of the last symbol of its word,
// and nothing else, so the node array holds no pointers. An answered word
// records every node on its path, so a word is answered exactly when its
// terminal node is recorded (Has), and any query whose word is a prefix of
// an answered one is read off the path.
//
// The same trie is the learner's dedup set. Its epoch marks stand for "already
// emitted" during one conformance suite or one prefetch list, so the walk that
// finds whether a word is answered also finds whether it is a duplicate; no
// second trie of word keys exists. Readers never materialize an output
// slice: cells fold interned ids node by node (intern.Append), and test words
// compare outputs against the hypothesis along the walk.
//
// The learner runs on one goroutine, so the memo is an unsynchronized
// store whose node ids are stable handles.

import (
	"repro/internal/intern"
	"repro/internal/qstore"
)

// note walks w from the root, creating its path, marks its node in the
// current epoch, and reports whether the mark is new and whether w is
// already answered.
func (l *engine) note(w []int) (fresh, answered bool) {
	n := l.memo.Ensure(w)
	return l.memo.Mark(n), l.memo.Has(n)
}

// fold returns the interned output word of s read off the memo below node
// n, or false when the memo does not answer every symbol of s.
func (l *engine) fold(ids *intern.Interner, n int32, s []int) (int32, bool) {
	acc := intern.Empty
	for _, a := range s {
		if n = l.memo.Child(n, a); n < 0 || !l.memo.Has(n) {
			return 0, false
		}
		acc = ids.Append(acc, int(*l.memo.Val(n)))
	}
	return acc, true
}

// cellID returns the interned output word of suffix s after prefix u, whose
// memo node *nu is (-1 when absent). On a miss it asks the teacher for u·s
// and updates *nu, which then exists.
func (l *engine) cellID(ids *intern.Interner, nu *int32, u, s []int) (int32, error) {
	if *nu >= 0 {
		if id, ok := l.fold(ids, *nu, s); ok {
			return id, nil
		}
	}
	out, err := l.ask(qstore.Concat(u, s))
	if err != nil {
		return 0, err
	}
	*nu = l.memo.Find(u)
	return ids.Word(out[len(u):]), nil
}

// output returns the output of the last symbol of u·a.
func (l *engine) output(u []int, a int) (int, error) {
	out, err := l.query(qstore.Concat(u, []int{a}))
	if err != nil {
		return 0, err
	}
	return out[len(u)], nil
}

// record stores the per-symbol outputs of w on its path.
func (l *engine) record(w, out []int) {
	n := int32(0)
	for i, a := range w {
		n = l.memo.Extend(n, a)
		*l.memo.Val(n) = int32(out[i])
		l.memo.SetHas(n)
	}
}
