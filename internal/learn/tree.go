package learn

// The discrimination-tree learner (AlgoTree). Where the observation table
// asks every (prefix, suffix) cell — |P|·(1+|Σ|)·|S| output queries, with S
// growing by *all* suffixes of every counterexample (Maler–Pnueli) — the
// discrimination tree stores only the experiments that actually separate
// states, and a state pays only for the experiments on its own root-to-leaf
// path. Counterexamples contribute a single new experiment, located by
// Rivest–Schapire binary search over the counterexample word. The net effect
// is asymptotically (and on the cache policies of this repository,
// measurably) fewer membership queries for the same learned machine.
//
// Tree layout. Leaves are hypothesis states, identified by an access word;
// inner nodes carry a non-empty distinguishing suffix v and edges keyed by
// the *interned* output word a state produces on v (for DFAs the tree is
// binary — accept/reject; Mealy outputs make it n-ary, so edges intern the
// suffix-output word to a dense int32 id instead of branching on a bit).
// Sifting a word u walks from the root, querying u·v at every inner node and
// following the edge labeled with the observed suffix output; the leaf
// reached is u's state. Both the sift queries and the Rivest–Schapire
// queries go through the shared engine, so the word-trie memo answers any
// query that is a prefix of an already-answered word and repeated sifts of
// the same word are free.

import (
	"fmt"

	"repro/internal/intern"
	"repro/internal/mealy"
	"repro/internal/qstore"
)

// treeLearner holds the discrimination-tree state.
type treeLearner struct {
	engine

	ids *intern.Interner // suffix-output words -> dense edge labels

	nodes  []dtNode // node 0 is the root
	access [][]int  // access word per hypothesis state
	leafOf []int32  // leaf node per hypothesis state
}

// dtNode is one discrimination-tree node. A leaf (state >= 0) stands for the
// hypothesis state whose access word sifts to it; an inner node (state == -1)
// carries the distinguishing suffix and its outcome edges.
type dtNode struct {
	state    int             // leaf: dense state id; inner: -1
	suffix   []int           // inner: non-empty distinguishing suffix
	children map[int32]int32 // inner: child node per interned suffix-output word
}

// newState registers a fresh hypothesis state with the given access word and
// returns its leaf node id, enforcing the state budget.
func (l *treeLearner) newState(w []int) (int32, error) {
	if l.opt.MaxStates > 0 && len(l.access) >= l.opt.MaxStates {
		return -1, fmt.Errorf("%w: more than %d states", ErrStateBudget, l.opt.MaxStates)
	}
	leaf := int32(len(l.nodes))
	l.nodes = append(l.nodes, dtNode{state: len(l.access)})
	l.access = append(l.access, append([]int(nil), w...))
	l.leafOf = append(l.leafOf, leaf)
	return leaf, nil
}

// sift walks w down the tree and returns its state, creating a fresh leaf —
// and hence a fresh hypothesis state — when an inner node has no edge for
// the observed suffix output (the closedness analog of the table learner).
func (l *treeLearner) sift(w []int) (int, error) {
	n, nw := int32(0), l.trie.Find(w)
	for l.nodes[n].state < 0 {
		id, err := l.cellID(l.ids, &nw, w, l.nodes[n].suffix)
		if err != nil {
			return -1, err
		}
		child, ok := l.nodes[n].children[id]
		if !ok {
			leaf, err := l.newState(w)
			if err != nil {
				return -1, err
			}
			l.nodes[n].children[id] = leaf
			return l.nodes[leaf].state, nil
		}
		n = child
	}
	return l.nodes[n].state, nil
}

// build constructs the hypothesis by sifting every transition word u·a.
// States discovered mid-pass (sift landing on a missing edge) are appended
// and processed in the same pass, so the returned machine is closed. Every
// access word sifts to its own leaf — the edges on its path record the
// teacher's actual outputs for that very word — so state q is reachable via
// access[q] and the hypothesis transitions δ(q, a) = sift(access[q]·a) are
// well defined.
func (l *treeLearner) build() (*mealy.Machine, error) {
	var next, out [][]int
	for q := 0; q < len(l.access); q++ {
		u := l.access[q]
		if l.batch > 1 {
			// Warm the memo for the whole row in one batched dispatch: the
			// transition words themselves plus their first sift experiment
			// (the root suffix — every sift starts there). Deeper sift
			// queries are data-dependent and stay lazy.
			var words [][]int
			for a := 0; a < l.numIn; a++ {
				ua := qstore.Concat(u, []int{a})
				if root := &l.nodes[0]; root.state < 0 {
					words = append(words, qstore.Concat(ua, root.suffix))
				} else {
					words = append(words, ua)
				}
			}
			if err := l.prefetch(words); err != nil {
				return nil, err
			}
		}
		nrow := make([]int, l.numIn)
		orow := make([]int, l.numIn)
		for a := 0; a < l.numIn; a++ {
			ua := qstore.Concat(u, []int{a})
			tgt, err := l.sift(ua)
			if err != nil {
				return nil, err
			}
			nrow[a] = tgt
			// Read the transition output after sifting: the sift queries
			// extend u·a, so the trie memo answers it without a teacher
			// round trip.
			if orow[a], err = l.output(u, a); err != nil {
				return nil, err
			}
		}
		next = append(next, nrow)
		out = append(out, orow)
	}
	m := mealy.New(len(l.access), l.numIn)
	m.Init = 0
	for q := range next {
		copy(m.Next[q], next[q])
		copy(m.Out[q], out[q])
	}
	return m, nil
}

// refine processes one counterexample by Rivest–Schapire decomposition: a
// binary search over the counterexample w finds an index i such that
// replacing the prefix w[:i] by the access word of the hypothesis state it
// reaches still disagrees with the teacher, while replacing w[:i+1] agrees.
// Writing q = δ_H(w[:i]), a = w[i] and v = w[i+1:], that boundary proves the
// suffix v distinguishes the word access[q]·a from access[δ_H(q, a)] — so
// the leaf of δ_H(q, a) is split on the new experiment v. Each
// counterexample costs O(log |w|) output queries and adds exactly one
// experiment, against Maler–Pnueli's |w| new table columns.
func (l *treeLearner) refine(hyp *mealy.Machine, w []int) error {
	// agree reports whether the teacher's outputs on access(δ_H(w[:i]))·w[i:]
	// match the hypothesis on the w[i:] suffix.
	agree := func(i int) (bool, error) {
		q := hyp.StateAfter(w[:i])
		u := l.access[q]
		got, err := l.query(qstore.Concat(u, w[i:]))
		if err != nil {
			return false, err
		}
		tail := got[len(u):]
		want := hyp.RunFrom(q, w[i:])
		for j := range want {
			if tail[j] != want[j] {
				return false, nil
			}
		}
		return true, nil
	}

	// Invariant: disagree at lo, agree at hi. lo = 0 disagrees because w is
	// a counterexample (access of the initial state is ε); hi = len(w)
	// agrees vacuously (empty suffix). The boundary always sits at
	// i <= len(w)-2: at i = len(w)-1 the only compared symbol is the
	// transition output λ(q, a), which build defined from the very same
	// memoized cell — so the discriminator v = w[i+1:] is never empty.
	lo, hi := 0, len(w)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := agree(mid)
		if err != nil {
			return err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	i := lo
	if i+1 >= len(w) {
		return fmt.Errorf("learn: counterexample %v decomposed to an empty discriminator", w)
	}
	q := hyp.StateAfter(w[:i])
	a := w[i]
	v := w[i+1:]
	return l.split(hyp.Next[q][a], qstore.Concat(l.access[q], []int{a}), v)
}

// split replaces the leaf of state with an inner node on discriminator v,
// separating the state's old access word from the new word w (which becomes
// a fresh state). Transitions that used to sift onto the old leaf are
// re-sifted through the new inner node on the next build pass — re-sifting
// is almost entirely memo hits, only the new experiment v costs queries.
func (l *treeLearner) split(state int, w, v []int) error {
	nold, nnew := l.trie.Find(l.access[state]), l.trie.Find(w)
	oldID, err := l.cellID(l.ids, &nold, l.access[state], v)
	if err != nil {
		return err
	}
	newID, err := l.cellID(l.ids, &nnew, w, v)
	if err != nil {
		return err
	}
	if oldID == newID {
		return fmt.Errorf("learn: discriminator %v does not split %v from %v (nondeterministic teacher?)", v, l.access[state], w)
	}
	n := l.leafOf[state]
	oldLeaf := int32(len(l.nodes))
	l.nodes = append(l.nodes, dtNode{state: state})
	l.leafOf[state] = oldLeaf
	newLeaf, err := l.newState(w)
	if err != nil {
		return err
	}
	l.nodes[n] = dtNode{
		state:    -1,
		suffix:   append([]int(nil), v...),
		children: map[int32]int32{oldID: oldLeaf, newID: newLeaf},
	}
	return nil
}

// run is the discrimination-tree main loop: build a closed hypothesis, find
// a counterexample, refine, repeat. The tree starts as a single leaf — the
// empty access word — so the first hypothesis has one state and the first
// counterexample plants the first real experiment.
//
// Each conformance counterexample is exploited to exhaustion: after a split
// the same word often still disagrees with the rebuilt hypothesis and funds
// the next split. Re-checking it is answered from the memo, so the expensive
// suite — its words are mostly fresh — is amortized over several splits
// instead of exactly one. The re-check examines only the word itself, so
// batched and serial runs stay on bit-identical trajectories (a mined memo
// walk would not: speculative prefetch leaves words in a batched memo that a
// serial run never asks).
func (l *treeLearner) run() (*mealy.Machine, error) {
	l.nodes = []dtNode{{state: 0}}
	l.access = [][]int{{}}
	l.leafOf = []int32{0}
	for {
		l.stats.Rounds++
		hyp, err := l.build()
		if err != nil {
			return nil, err
		}
		ce, err := l.findCounterexample(hyp)
		if err != nil {
			return nil, err
		}
		if ce == nil {
			return hyp, nil
		}
		for ce != nil {
			l.stats.Counterexample++
			if err := l.refine(hyp, ce); err != nil {
				return nil, err
			}
			if hyp, err = l.build(); err != nil {
				return nil, err
			}
			if ce, err = l.checkWord(hyp, ce); err != nil {
				return nil, err
			}
		}
	}
}
