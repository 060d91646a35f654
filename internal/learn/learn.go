// Package learn implements active automata learning for Mealy machines in
// the student–teacher paradigm of Angluin [6], as extended to Mealy machines
// by Niese [29]. It plays the role LearnLib plays in the paper: the student
// asks output queries through a Teacher (Polca in the full pipeline) and
// approximates equivalence queries by W-method conformance testing of a
// configurable depth k, yielding the relative completeness guarantee of
// Corollary 3.4: a returned hypothesis H is either trace-equivalent to the
// policy under learning, or the policy has more than |H| + k states.
//
// Two learning algorithms share that infrastructure: the L*-style
// observation-table learner (AlgoLStar, the paper's setting) and a
// discrimination-tree learner (AlgoTree, observation-pack/TTT style) that
// asks asymptotically fewer output queries by storing only the
// distinguishing experiments that actually separate states.
package learn

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/intern"
	"repro/internal/mealy"
	"repro/internal/qstore"
)

// Teacher answers output queries for the system under learning. Polca's
// Oracle implements it; software-simulated machines can implement it
// directly via MachineTeacher.
//
// Every query carries a context: a multi-hour hardware campaign must be
// cancellable mid-learn, and deadlines propagate from the CLIs down to the
// individual backend probe. Teachers must return promptly once ctx is done;
// the learner checks the context between queries too, so even a teacher that
// ignores ctx unwinds at the next query boundary.
type Teacher interface {
	// NumInputs returns the input alphabet size; inputs are 0..NumInputs-1.
	NumInputs() int
	// OutputQuery returns the output word produced by the input word.
	OutputQuery(ctx context.Context, word []int) ([]int, error)
}

// ErrStateBudget is returned when the hypothesis grows beyond
// Options.MaxStates, the in-process analog of the paper's 36 h timeout.
var ErrStateBudget = errors.New("learn: hypothesis exceeds the state budget")

// Suite selects the conformance-testing method used to approximate
// equivalence queries.
type Suite int

// Conformance suites.
const (
	// SuiteWp is the Wp-method [23] the paper uses: full characterizing
	// sets on the state cover, per-state identification sets on the
	// remaining transition cover. Same (|H|+k)-completeness as the
	// W-method with a smaller suite.
	SuiteWp Suite = iota
	// SuiteW is the classic W-method: the full characterizing set on the
	// whole transition cover.
	SuiteW
	// SuiteRandomWalk samples random test words instead of a complete
	// suite (no completeness guarantee, much deeper traces per query).
	// Options.RandomWalkSteps bounds the total symbols drawn per round and
	// Options.RandomWalkSeed makes runs reproducible end to end.
	SuiteRandomWalk
)

// String returns the flag spelling of the suite.
func (s Suite) String() string {
	switch s {
	case SuiteWp:
		return "wp"
	case SuiteW:
		return "w"
	case SuiteRandomWalk:
		return "rw"
	}
	return fmt.Sprintf("Suite(%d)", int(s))
}

// ParseSuite parses a flag spelling ("wp", "w", or "rw") into a Suite — the
// shared mapping behind every CLI's -suite flag.
func ParseSuite(s string) (Suite, error) {
	switch strings.ToLower(s) {
	case "", "wp":
		return SuiteWp, nil
	case "w":
		return SuiteW, nil
	case "rw", "randomwalk", "random-walk":
		return SuiteRandomWalk, nil
	}
	return 0, fmt.Errorf("learn: unknown conformance suite %q (want wp, w, or rw)", s)
}

// Algo selects the learning algorithm.
type Algo int

// Learning algorithms.
const (
	// AlgoLStar is the L*-style observation-table learner (Angluin/Niese),
	// with a reduced table and Maler–Pnueli counterexample handling — the
	// algorithm the paper runs through LearnLib.
	AlgoLStar Algo = iota
	// AlgoTree is the discrimination-tree learner (observation-pack/TTT
	// style): states are leaves of a tree of distinguishing suffixes,
	// transitions are computed by sifting, and counterexamples are
	// decomposed by Rivest–Schapire binary search. It asks asymptotically
	// fewer output queries than the observation table because a state only
	// pays for the experiments on its own root-to-leaf path.
	AlgoTree
)

// String returns the flag spelling of the algorithm.
func (a Algo) String() string {
	switch a {
	case AlgoLStar:
		return "lstar"
	case AlgoTree:
		return "tree"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// ParseAlgo parses a flag spelling ("lstar" or "tree") into an Algo.
func ParseAlgo(s string) (Algo, error) {
	switch strings.ToLower(s) {
	case "", "lstar", "l*":
		return AlgoLStar, nil
	case "tree", "dt", "ttt":
		return AlgoTree, nil
	}
	return 0, fmt.Errorf("learn: unknown algorithm %q (want lstar or tree)", s)
}

// Options configures the learning loop. How many words the learner
// prefetches per dispatch is not an option: it follows from the teacher's
// BatchHint (resolveBatch).
type Options struct {
	// Algo selects the learning algorithm (default: the L*-style
	// observation table).
	Algo Algo
	// Depth is the conformance-testing depth k (§3.4); the test suite is
	// (|H|+k)-complete. The paper uses k = 1 throughout.
	Depth int
	// Suite selects the conformance method (default: Wp-method).
	Suite Suite
	// MaxStates aborts learning when the hypothesis exceeds this many
	// states; 0 means unlimited.
	MaxStates int
	// RandomWalkSteps bounds the total symbols a SuiteRandomWalk round
	// draws; RandomWalkSeed makes its runs reproducible.
	RandomWalkSteps int
	RandomWalkSeed  int64
}

// MaxBatchSize caps the prefetch chunk a BatchHinter's hint derives.
const MaxBatchSize = 64

// Stats aggregates learner-side cost counters. The JSON names are the
// polcad daemon's wire format (docs/API.md).
type Stats struct {
	OutputQueries  int           `json:"output_queries"`  // distinct output queries sent to the teacher
	QuerySymbols   int           `json:"query_symbols"`   // total symbols across those queries
	Rounds         int           `json:"rounds"`          // hypothesis refinement rounds
	TestWords      int           `json:"test_words"`      // conformance test words executed
	Counterexample int           `json:"counterexamples"` // counterexamples processed
	Duration       time.Duration `json:"duration_ns"`     // wall-clock learning time
}

// Result is a successful learning outcome.
type Result struct {
	Machine *mealy.Machine
	Stats   Stats
}

// Learn runs the learning loop selected by Options.Algo against the teacher
// until the conformance suite of depth Options.Depth finds no
// counterexample, and returns the final hypothesis. Cancelling ctx aborts the
// run at the next query boundary with ctx.Err(); the teacher's stores stay
// consistent (only fully-answered queries are memoized), so the same teacher
// can be learned again — or resumed from a snapshot — after a cancel.
func Learn(ctx context.Context, t Teacher, opt Options) (*Result, error) {
	if opt.Depth < 0 {
		return nil, fmt.Errorf("learn: negative depth %d", opt.Depth)
	}
	if t.NumInputs() < 1 {
		return nil, fmt.Errorf("learn: teacher has an empty input alphabet")
	}

	var (
		m     *mealy.Machine
		err   error
		stats *Stats
	)
	start := time.Now()
	switch opt.Algo {
	case AlgoLStar:
		l := newLearner(ctx, t, opt)
		m, err = l.run()
		stats = &l.stats
	case AlgoTree:
		l := &treeLearner{
			engine: newEngine(ctx, t, opt),
			ids:    intern.New(),
		}
		m, err = l.run()
		stats = &l.stats
	default:
		return nil, fmt.Errorf("learn: unknown algorithm %v", opt.Algo)
	}
	stats.Duration = time.Since(start)
	if err != nil {
		return nil, err
	}
	return &Result{Machine: m, Stats: *stats}, nil
}

// engine is the query infrastructure shared by every learning algorithm: the
// teacher handle, the prefix-tree output-query memo (which is also the dedup
// set of suites and prefetch lists), batch prefetching, the
// conformance-suite construction, and the cost counters. The algorithms
// (observation table, discrimination tree) embed it and differ only in how
// they organize observations into a hypothesis.
type engine struct {
	ctx     context.Context
	teacher Teacher
	opt     Options
	numIn   int
	batch   int // prefetch chunk size; <= 1 keeps the loop exactly serial

	memo *qstore.Store[int, int32] // prefix-tree output-query memo (memo.go)
	trie *qstore.Shard[int, int32] // its only shard

	stats Stats
}

// newEngine builds the shared query infrastructure for one learning run.
func newEngine(ctx context.Context, t Teacher, opt Options) engine {
	if ctx == nil {
		ctx = context.Background()
	}
	memo := qstore.New[int, int32](qstore.Options{Degree: t.NumInputs()})
	return engine{
		ctx:     ctx,
		teacher: t,
		opt:     opt,
		numIn:   t.NumInputs(),
		batch:   resolveBatch(t),
		memo:    memo,
		trie:    memo.AcquireIdx(0),
	}
}

// learner holds the observation-table state of the L* algorithm. The table
// is kept reduced: every short prefix in P has a distinct row, so the
// hypothesis is well-defined without a separate consistency phase, and
// counterexamples are processed by adding all their suffixes to S
// (Maler–Pnueli).
type learner struct {
	engine

	prefixes [][]int // P, prefix-closed, pairwise distinct rows
	suffixes [][]int // S, suffix set (non-empty words), append-only
	sufs     *qstore.Store[int, struct{}]
	fetchedS int // suffixes whose table columns have been batch-prefetched

	ids      *intern.Interner // row/cell signature interning
	rowCache map[int32]rowSig // row signature per memo-trie node of its prefix
}

// rowSig is a row signature folded over a prefix of the suffix columns:
// acc is the left fold of the cell ids over suffixes[:n]. S only grows by
// appending, so a cached fold is extended over suffixes[n:] and never
// recomputed.
type rowSig struct {
	acc int32
	n   int
}

// newLearner builds an L* learner holding the initial table: P = {ε} and
// one single-symbol suffix per input.
func newLearner(ctx context.Context, t Teacher, opt Options) *learner {
	l := &learner{
		engine:   newEngine(ctx, t, opt),
		sufs:     qstore.New[int, struct{}](qstore.Options{Degree: t.NumInputs()}),
		ids:      intern.New(),
		rowCache: make(map[int32]rowSig),
		prefixes: [][]int{{}},
	}
	for a := 0; a < l.numIn; a++ {
		l.addSuffix([]int{a})
	}
	return l
}

// resolveBatch computes the prefetch chunk for a teacher: 4x its BatchHint,
// capped at MaxBatchSize, so a BatchTeacher has work queued while a batch
// is answered. A hint of 1 or less, or a teacher without batch support,
// keeps the loop exactly serial.
func resolveBatch(t Teacher) int {
	if _, ok := t.(BatchTeacher); !ok {
		return 1
	}
	hint := 0
	if bh, ok := t.(BatchHinter); ok {
		hint = bh.BatchHint()
	}
	if hint <= 1 {
		return 1
	}
	return min(4*hint, MaxBatchSize)
}

// query returns the teacher's output word for w, memoized. A hit copies the
// outputs off w's trie path.
func (l *engine) query(w []int) ([]int, error) {
	out := make([]int, len(w))
	n := int32(0)
	for i, a := range w {
		if n = l.trie.Child(n, a); n < 0 || !l.trie.Has(n) {
			return l.ask(w)
		}
		out[i] = int(*l.trie.Val(n))
	}
	return out, nil
}

// ask sends w to the teacher and records the answer. Cancellation is checked
// only here, before a real teacher round trip: memo hits cost nothing extra,
// and a cancelled learn still unwinds at the next fresh query.
func (l *engine) ask(w []int) ([]int, error) {
	if err := l.ctx.Err(); err != nil {
		return nil, err
	}
	out, err := l.teacher.OutputQuery(l.ctx, w)
	if err != nil {
		return nil, err
	}
	if len(out) != len(w) {
		return nil, fmt.Errorf("learn: teacher returned %d outputs for %d inputs", len(out), len(w))
	}
	l.stats.OutputQueries++
	l.stats.QuerySymbols += len(w)
	l.record(w, out)
	return out, nil
}

// prefetch memoizes the answers for every word of the list not yet in the
// memo, dispatching all of them in one BatchTeacher call when the teacher
// supports it. Afterwards any lookup of a prefetched word is a pure memo
// walk, so callers keep their serial, deterministic control flow while the
// teacher answers the whole batch at once (typically on parallel
// goroutines). Duplicates in the list are dropped on the memo's marks.
func (l *engine) prefetch(words [][]int) error {
	if l.batch <= 1 {
		return nil // the serial path asks lazily, paying no speculative queries
	}
	l.memo.ResetMarks()
	var pending [][]int
	for _, w := range words {
		if len(w) == 0 {
			continue
		}
		if fresh, answered := l.note(w); fresh && !answered {
			pending = append(pending, w)
		}
	}
	return l.dispatch(pending)
}

// dispatch asks the teacher for the distinct, unanswered words of pending in
// one BatchTeacher call and records the answers.
func (l *engine) dispatch(pending [][]int) error {
	if len(pending) == 0 {
		return nil
	}
	if err := l.ctx.Err(); err != nil {
		return err
	}
	outs, err := l.teacher.(BatchTeacher).OutputQueryBatch(l.ctx, pending)
	if err != nil {
		return err
	}
	if len(outs) != len(pending) {
		return fmt.Errorf("learn: teacher answered %d of %d batched queries", len(outs), len(pending))
	}
	for i, w := range pending {
		if len(outs[i]) != len(w) {
			return fmt.Errorf("learn: teacher returned %d outputs for %d inputs", len(outs[i]), len(w))
		}
		l.stats.OutputQueries++
		l.stats.QuerySymbols += len(w)
		l.record(w, outs[i])
	}
	return nil
}

// rowID returns the interned row signature of prefix u over the current
// suffixes: every cell's output word folds to a dense id, and the row is
// the left fold of its cell ids — no string keys are built. The fold is
// cached under u's node in the output memo (a single unsynchronized shard,
// so node ids are stable handles) and extended over the suffixes appended
// since it was last computed. A fold interrupted by a query error is not
// stored.
func (l *learner) rowID(u []int) (int32, error) {
	node := l.trie.Find(u)
	sig := rowSig{acc: intern.Empty}
	if node >= 0 {
		if c, ok := l.rowCache[node]; ok {
			sig = c
		}
	}
	if sig.n == len(l.suffixes) {
		return sig.acc, nil
	}
	for _, s := range l.suffixes[sig.n:] {
		// On the serial path u's node may first appear when one of its
		// cells is asked; cellID updates node then.
		c, err := l.cellID(l.ids, &node, u, s)
		if err != nil {
			return 0, err
		}
		sig.acc = l.ids.Pair(sig.acc, c)
	}
	sig.n = len(l.suffixes)
	l.rowCache[node] = sig
	return sig.acc, nil
}

func (l *learner) addSuffix(s []int) {
	if len(s) == 0 || !l.sufs.InsertMark(s) {
		return
	}
	l.suffixes = append(l.suffixes, append([]int(nil), s...))
}

// addCounterexample processes a counterexample the Maler–Pnueli way: every
// suffix of it becomes a distinguishing suffix.
func (l *learner) addCounterexample(ce []int) {
	l.stats.Counterexample++
	for i := 0; i < len(ce); i++ {
		l.addSuffix(ce[i:])
	}
}

func (l *learner) run() (*mealy.Machine, error) {
	for {
		l.stats.Rounds++
		hyp, err := l.closeAndBuild()
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
		l.addCounterexample(ce)
	}
}

// rowWords enumerates the output queries needed to fill the table rows of
// the given prefixes over the given suffix columns: u·s and u·a·s for every
// input a and suffix s. Prefetching them lets a BatchTeacher fill whole
// table rows in one parallel dispatch instead of |S|·(1+|Σ|) serial round
// trips per prefix.
func (l *learner) rowWords(prefixes, suffixes [][]int) [][]int {
	var words [][]int
	for _, u := range prefixes {
		for _, s := range suffixes {
			words = append(words, qstore.Concat(u, s))
		}
		for a := 0; a < l.numIn; a++ {
			ua := qstore.Concat(u, []int{a})
			for _, s := range suffixes {
				words = append(words, qstore.Concat(ua, s))
			}
		}
	}
	return words
}

// closeAndBuild restores table closedness and constructs the hypothesis.
//
// Batch prefetch: entering a round, fill the columns of any suffixes added
// by the last counterexample across the whole table; within the round,
// fetch only the full rows of prefixes promoted by the closing scan.
// Everything else is already memoized, so the folds below are pure cache
// walks. Without batching the table asks lazily, exactly as the serial
// learner always has.
//
// The closing scan runs once over P·Σ in (prefix, input) order. Promoting
// P[i]·a only adds a row, so every extension checked before it still has a
// match and the scan resumes at (i, a+1); prefixes promoted during the scan
// are appended to P and scanned in turn.
func (l *learner) closeAndBuild() (*mealy.Machine, error) {
	batching := l.batch > 1
	if batching {
		fetch := l.rowWords(l.prefixes, l.suffixes[l.fetchedS:])
		l.fetchedS = len(l.suffixes)
		if err := l.prefetch(fetch); err != nil {
			return nil, err
		}
	}
	rows := make(map[int32]int, len(l.prefixes))
	for i, u := range l.prefixes {
		k, err := l.rowID(u)
		if err != nil {
			return nil, err
		}
		if err := l.insertRow(rows, k, i); err != nil {
			return nil, err
		}
	}

	for i := 0; i < len(l.prefixes); i++ {
		for a := 0; a < l.numIn; a++ {
			ext := qstore.Concat(l.prefixes[i], []int{a})
			k, err := l.rowID(ext)
			if err != nil {
				return nil, err
			}
			if _, ok := rows[k]; ok {
				continue
			}
			if l.opt.MaxStates > 0 && len(l.prefixes) >= l.opt.MaxStates {
				return nil, fmt.Errorf("%w: more than %d states", ErrStateBudget, l.opt.MaxStates)
			}
			l.prefixes = append(l.prefixes, ext)
			if batching {
				if err := l.prefetch(l.rowWords([][]int{ext}, l.suffixes)); err != nil {
					return nil, err
				}
			}
			if err := l.insertRow(rows, k, len(l.prefixes)-1); err != nil {
				return nil, err
			}
		}
	}

	// Build the hypothesis from the closed, reduced table; every row
	// signature is a cache read now.
	m := mealy.New(len(l.prefixes), l.numIn)
	m.Init = 0
	for i, u := range l.prefixes {
		for a := 0; a < l.numIn; a++ {
			k, err := l.rowID(qstore.Concat(u, []int{a}))
			if err != nil {
				return nil, err
			}
			j, ok := rows[k]
			if !ok {
				return nil, fmt.Errorf("learn: table not closed after closing pass")
			}
			m.Next[i][a] = j
			if m.Out[i][a], err = l.output(u, a); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// insertRow records prefix i's row signature k. Two short prefixes with
// equal rows would break the reduced table; with a deterministic teacher
// rows only split, so this is an error rather than something to repair.
func (l *learner) insertRow(rows map[int32]int, k int32, i int) error {
	if j, dup := rows[k]; dup {
		return fmt.Errorf("learn: duplicate rows in reduced table (prefixes %v and %v)", l.prefixes[j], l.prefixes[i])
	}
	rows[k] = i
	return nil
}

// findCounterexample approximates the equivalence query. It returns nil when
// the conformance suite agrees with the hypothesis everywhere, and otherwise
// a shortest failing prefix of some failing test word.
func (l *engine) findCounterexample(hyp *mealy.Machine) ([]int, error) {
	if l.opt.Suite == SuiteRandomWalk {
		return l.randomWalkCE(hyp)
	}
	// One analysis per round: the minimal machine both yields W and tells
	// whether the hypothesis is reduced. The Wp-method's phase 2 identifies
	// the reached state by a subset of W unique to it, which requires a
	// reduced hypothesis. Mid-learning hypotheses (the discrimination
	// tree's especially) can briefly contain hypothesis-equivalent states;
	// their identification sets would be empty and phase 2 would silently
	// skip those transitions. Such degenerate rounds run the plain W-method:
	// soundness over suite size.
	mm := hyp.Minimize()
	w := mm.MinimalCharacterizingSet()
	if l.opt.Suite == SuiteW || mm.NumStates < hyp.NumStates {
		return l.wMethodCE(hyp, w)
	}
	return l.wpMethodCE(hyp, w)
}

// checkWord compares teacher and hypothesis on one word, returning the
// failing prefix or nil. An answered word is compared along its memo path,
// stepping the hypothesis in place: conformance testing examines hundreds of
// thousands of words, most of them memo hits, and this walk is their only
// per-word cost. Any other word is asked first.
func (l *engine) checkWord(hyp *mealy.Machine, w []int) ([]int, error) {
	n, state, fail := int32(0), hyp.Init, -1
	for i := 0; i < len(w); i++ {
		if n = l.trie.Child(n, w[i]); n < 0 || !l.trie.Has(n) {
			if _, err := l.ask(w); err != nil {
				return nil, err
			}
			n, state, fail, i = 0, hyp.Init, -1, -1 // walk the recorded answer
			continue
		}
		if fail < 0 {
			var out int
			if state, out = hyp.Step(state, w[i]); int(*l.trie.Val(n)) != out {
				fail = i
			}
		}
	}
	if fail >= 0 {
		return w[:fail+1], nil
	}
	return nil, nil
}
