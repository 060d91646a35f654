package learn

import (
	"context"
	"math/rand"

	"repro/internal/intern"
	"repro/internal/mealy"
	"repro/internal/qstore"
)

// This file implements the equivalence-query approximations of §3.3: the
// W-method [23] conformance suite of depth k, and the random-walk
// alternative the paper mentions for deeper counterexample exploration.
//
// The W-method suite for a hypothesis H and depth k is
//
//	T · Σ^{≤k} · W
//
// where T is a transition cover of H (a shortest access word for every state
// followed by every input), and W a characterizing set of H. The suite is
// (|H|+k)-complete: any machine with at most |H|+k states that agrees with H
// on all test words is trace-equivalent to H (Theorem 3.3).

// checkSuite compares teacher and hypothesis on every test word the
// generator emits, in order, returning the first counterexample exactly as a
// fully serial loop would — but prefetching each upcoming chunk of words
// through the BatchTeacher first, so the teacher answers Options.BatchSize
// independent queries at a time. The counterexample (and hence the whole
// learning trajectory) is independent of the chunking: words are examined
// strictly in emission order. Streaming matters for the discrimination-tree
// learner, which runs the suite once per refinement round: suite words after
// a counterexample are never even constructed.
//
// gen must call emit for every test word and stop as soon as emit returns
// false.
func (l *engine) checkSuite(hyp *mealy.Machine, gen func(emit func([]int) bool)) ([]int, error) {
	chunk := l.batch
	// Under a query budget, speculative prefetch past a counterexample
	// could spend queries the serial trajectory never asks and abort a run
	// serial learning would complete — so fall back to lazy asking. (Table
	// prefetches are unaffected: every table word is required either way.)
	if chunk < 1 || l.opt.MaxQueries > 0 {
		chunk = 1
	}
	var (
		buf [][]int
		ce  []int
		err error
	)
	flush := func() bool {
		if err = l.prefetch(buf); err != nil {
			return false
		}
		for _, test := range buf {
			l.stats.TestWords++
			if ce, err = l.checkWord(hyp, test); err != nil || ce != nil {
				return false
			}
		}
		buf = buf[:0]
		return true
	}
	gen(func(test []int) bool {
		buf = append(buf, test)
		if len(buf) >= chunk {
			return flush()
		}
		return true
	})
	if err == nil && ce == nil && len(buf) > 0 {
		flush()
	}
	return ce, err
}

// checkWords is checkSuite over a materialized word list.
func (l *engine) checkWords(hyp *mealy.Machine, words [][]int) ([]int, error) {
	return l.checkSuite(hyp, func(emit func([]int) bool) {
		for _, w := range words {
			if !emit(w) {
				return
			}
		}
	})
}

// wMethodCE runs the W-method suite against the teacher and returns a
// trimmed counterexample, or nil if the suite passes.
func (l *engine) wMethodCE(hyp *mealy.Machine) ([]int, error) {
	access := hyp.AccessSequences()
	w := hyp.CharacterizingSet()

	// Transition cover: every access sequence, bare and extended by every
	// input symbol.
	var cover [][]int
	for _, u := range access {
		cover = append(cover, u)
		for a := 0; a < l.numIn; a++ {
			cover = append(cover, append(append([]int(nil), u...), a))
		}
	}

	middles := qstore.Enumerate(l.numIn, l.opt.Depth)

	// The suite streams through a mark store for prefix-shared dedup
	// instead of materializing a map of word keys. The dedup store is
	// separate from the prefetch scratch store: generation interleaves
	// with prefetching.
	l.suite.ResetMarks()
	return l.checkSuite(hyp, func(emit func([]int) bool) {
		for _, u := range cover {
			for _, m := range middles {
				for _, suf := range w {
					test := qstore.Concat(u, m, suf)
					if len(test) == 0 || !l.suite.InsertMark(test) {
						continue
					}
					if !emit(test) {
						return
					}
				}
			}
		}
	})
}

// wpMethodCE runs the Wp-method suite against the teacher. Phase 1 applies
// the full characterizing set W after the state cover; phase 2 applies only
// the identification set of the reached state after the remaining
// transition-cover words. The suite is (|H|+k)-complete like the W-method
// but substantially smaller, which is why the paper uses it.
func (l *engine) wpMethodCE(hyp *mealy.Machine) ([]int, error) {
	// The Wp-method's phase 2 identifies the reached state by a subset of W
	// unique to it — which requires the hypothesis to be reduced. Mid-learning
	// hypotheses (the discrimination tree's especially) can briefly contain
	// hypothesis-equivalent states; their identification sets would be empty
	// and phase 2 would silently skip those transitions. Fall back to the
	// plain W-method for such degenerate rounds — soundness over suite size.
	if hyp.Minimize().NumStates < hyp.NumStates {
		return l.wMethodCE(hyp)
	}
	access := hyp.AccessSequences()
	w := hyp.CharacterizingSet()
	ident := identificationSets(hyp, w)
	middles := qstore.Enumerate(l.numIn, l.opt.Depth)

	l.suite.ResetMarks()
	return l.checkSuite(hyp, func(emit func([]int) bool) {
		add := func(test []int) bool {
			if len(test) == 0 || !l.suite.InsertMark(test) {
				return true
			}
			return emit(test)
		}
		// Phase 1: state cover x middles x W.
		for _, u := range access {
			for _, m := range middles {
				for _, suf := range w {
					if !add(qstore.Concat(u, m, suf)) {
						return
					}
				}
			}
		}
		// Phase 2: transition cover x middles x identification set of the
		// state the hypothesis predicts.
		for _, u := range access {
			for a := 0; a < l.numIn; a++ {
				ua := qstore.Concat(u, []int{a})
				for _, m := range middles {
					r := qstore.Concat(ua, m)
					s := hyp.StateAfter(r)
					for _, suf := range ident[s] {
						if !add(qstore.Concat(r, suf)) {
							return
						}
					}
				}
			}
		}
	})
}

// identificationSets computes, per state, a minimal-ish subset of W whose
// output signature is unique to that state (greedy cover).
func identificationSets(hyp *mealy.Machine, w [][]int) [][][]int {
	// Intern every (state, word) output once up front; the cover loop below
	// compares pairs of states per word and would otherwise re-intern the
	// same output vectors O(n) times each.
	ids := intern.New()
	sigTab := make([][]int32, hyp.NumStates)
	for s := 0; s < hyp.NumStates; s++ {
		sigTab[s] = make([]int32, len(w))
		for i, word := range w {
			sigTab[s][i] = ids.Word(hyp.RunFrom(s, word))
		}
	}
	out := make([][][]int, hyp.NumStates)
	for s := 0; s < hyp.NumStates; s++ {
		alive := make(map[int]bool, hyp.NumStates-1)
		for t := 0; t < hyp.NumStates; t++ {
			if t != s {
				alive[t] = true
			}
		}
		var set [][]int
		for i, word := range w {
			if len(alive) == 0 {
				break
			}
			split := false
			mine := sigTab[s][i]
			for t := range alive {
				if sigTab[t][i] != mine {
					delete(alive, t)
					split = true
				}
			}
			if split {
				set = append(set, word)
			}
		}
		// States that remain equal under all of W are trace-equivalent in
		// a non-minimal hypothesis; reduced hypotheses never leave alive
		// non-empty (wpMethodCE falls back to the W-method otherwise).
		if len(set) == 0 {
			// A single-state hypothesis has nothing to separate, but its
			// transition cover still needs outputs exercised in phase 2 —
			// the discrimination-tree learner's first hypothesis depends on
			// it to surface the first counterexample.
			set = w
		}
		out[s] = set
	}
	return out
}

// randomWalkCE samples random words until the step budget is exhausted.
// Unlike the W-method it gives no completeness guarantee, but explores much
// deeper traces per query.
func (l *engine) randomWalkCE(hyp *mealy.Machine) ([]int, error) {
	steps := l.opt.RandomWalkSteps
	if steps <= 0 {
		steps = 10000
	}
	rng := rand.New(rand.NewSource(l.opt.RandomWalkSeed + int64(l.stats.Rounds)))
	// Draw the whole round's words up front — the RNG sequence (and hence
	// the counterexample found) is identical to the serial walk — then check
	// them through the batched suite runner.
	var words [][]int
	spent := 0
	for spent < steps {
		n := 2 + rng.Intn(3*hyp.NumStates+4)
		if n > steps-spent {
			n = steps - spent
		}
		if n == 0 {
			break
		}
		word := make([]int, n)
		for i := range word {
			word[i] = rng.Intn(l.numIn)
		}
		spent += n
		words = append(words, word)
	}
	return l.checkWords(hyp, words)
}

// MachineTeacher adapts an explicit Mealy machine into a Teacher, used to
// test the learner in isolation and to re-learn already-learned models.
type MachineTeacher struct{ M *mealy.Machine }

// NumInputs implements Teacher.
func (t MachineTeacher) NumInputs() int { return t.M.NumInputs }

// OutputQuery implements Teacher. The simulated machine answers instantly,
// so only the context's terminal state matters.
func (t MachineTeacher) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.M.Run(word), nil
}
