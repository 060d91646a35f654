package learn

import (
	"context"
	"math/bits"
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
// fully serial loop would. With a hinted BatchTeacher it prefetches each
// upcoming chunk of words (the resolved batch width) first, so the teacher
// answers them as independent queries at once; a chunk's words past a
// counterexample are asked speculatively. The counterexample (and hence the
// whole learning trajectory) is independent of the chunking: words are
// examined strictly in emission order. With a batch width of 1 every word
// is asked only when it is checked. Streaming matters for the
// discrimination-tree learner, which runs the suite once per refinement
// round: suite words after a counterexample are never even constructed.
//
// Every emitted word is marked in the memo in the walk that finds whether it
// is answered; a chunk prefetches its first-marked, unanswered words. With
// dedup set, a word emitted earlier in the suite is skipped altogether (the
// W and Wp suites); without it, it is checked again but never re-asked (the
// random walk).
//
// gen must call emit for every test word and stop as soon as emit returns
// false.
func (l *engine) checkSuite(hyp *mealy.Machine, dedup bool, gen func(emit func([]int) bool)) ([]int, error) {
	var (
		buf, pending [][]int
		ce           []int
		err          error
	)
	flush := func() bool {
		if err = l.dispatch(pending); err != nil {
			return false
		}
		pending = pending[:0]
		for _, test := range buf {
			l.stats.TestWords++
			if ce, err = l.checkWord(hyp, test); err != nil || ce != nil {
				return false
			}
		}
		buf = buf[:0]
		return true
	}
	l.memo.ResetMarks()
	gen(func(test []int) bool {
		if len(test) == 0 {
			return true
		}
		fresh, answered := l.note(test)
		if dedup && !fresh {
			return true
		}
		buf = append(buf, test)
		if fresh && !answered && l.batch > 1 {
			pending = append(pending, test)
		}
		if len(buf) >= l.batch {
			return flush()
		}
		return true
	})
	if err == nil && ce == nil && len(buf) > 0 {
		flush()
	}
	return ce, err
}

// wMethodCE runs the W-method suite for characterizing set w against the
// teacher and returns a trimmed counterexample, or nil if the suite passes.
func (l *engine) wMethodCE(hyp *mealy.Machine, w [][]int) ([]int, error) {
	access := hyp.AccessSequences()

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
	return l.checkSuite(hyp, true, func(emit func([]int) bool) {
		for _, u := range cover {
			for _, m := range middles {
				for _, suf := range w {
					if !emit(qstore.Concat(u, m, suf)) {
						return
					}
				}
			}
		}
	})
}

// wpMethodCE runs the Wp-method suite for characterizing set w of a reduced
// hypothesis against the teacher. Phase 1 applies the full characterizing
// set W after the state cover; phase 2 applies only the identification set
// of the reached state after the remaining transition-cover words. The
// suite is (|H|+k)-complete like the W-method but substantially smaller,
// which is why the paper uses it.
func (l *engine) wpMethodCE(hyp *mealy.Machine, w [][]int) ([]int, error) {
	access := hyp.AccessSequences()
	ident := identificationSets(hyp, w)
	middles := qstore.Enumerate(l.numIn, l.opt.Depth)
	return l.checkSuite(hyp, true, func(emit func([]int) bool) {
		// Phase 1: state cover x middles x W.
		for _, u := range access {
			for _, m := range middles {
				for _, suf := range w {
					if !emit(qstore.Concat(u, m, suf)) {
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
						if !emit(qstore.Concat(r, suf)) {
							return
						}
					}
				}
			}
		}
	})
}

// identificationSets computes, per state, a minimal-ish subset of W whose
// output signature is unique to that state (greedy cover over W in order).
// The states a state is not yet separated from are a dense bitset.
func identificationSets(hyp *mealy.Machine, w [][]int) [][][]int {
	n := hyp.NumStates
	// Intern every (word, state) output once up front; the cover loop below
	// compares pairs of states per word and would otherwise re-run the same
	// words O(n) times each.
	ids := intern.New()
	sig := make([][]int32, len(w))
	for i, word := range w {
		sig[i] = make([]int32, n)
		for t := range sig[i] {
			acc, q := intern.Empty, t
			for _, a := range word {
				var o int
				q, o = hyp.Step(q, a)
				acc = ids.Append(acc, o)
			}
			sig[i][t] = acc
		}
	}
	out := make([][][]int, n)
	alive := make([]uint64, (n+63)/64)
	for s := 0; s < n; s++ {
		for k := range alive {
			alive[k] = ^uint64(0)
		}
		if r := n & 63; r != 0 {
			alive[len(alive)-1] = 1<<r - 1
		}
		alive[s>>6] &^= 1 << (s & 63)
		left := n - 1
		var set [][]int
		for i, word := range w {
			if left == 0 {
				break
			}
			mine, split := sig[i][s], false
			for k, bw := range alive {
				for ; bw != 0; bw &= bw - 1 {
					if t := k<<6 + bits.TrailingZeros64(bw); sig[i][t] != mine {
						alive[k] &^= 1 << (t & 63)
						left--
						split = true
					}
				}
			}
			if split {
				set = append(set, word)
			}
		}
		// States that remain equal under all of W are trace-equivalent in
		// a non-minimal hypothesis; reduced hypotheses never leave any
		// (findCounterexample runs the W-method otherwise).
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
	return l.checkSuite(hyp, false, func(emit func([]int) bool) {
		for _, w := range words {
			if !emit(w) {
				return
			}
		}
	})
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
