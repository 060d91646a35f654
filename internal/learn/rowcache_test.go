package learn

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/intern"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// foldFromScratch folds u's row over suffixes[:n] without the row cache —
// the definition the cached, incrementally extended signature must equal.
func foldFromScratch(l *learner, u []int, n int) (int32, error) {
	acc := intern.Empty
	for _, s := range l.suffixes[:n] {
		c, err := l.query(qstore.Concat(u, s))
		if err != nil {
			return 0, err
		}
		acc = l.ids.Pair(acc, l.ids.Word(c[len(u):]))
	}
	return acc, nil
}

// tableWords returns P and P·Σ, the words whose rows the table holds.
func tableWords(l *learner) [][]int {
	words := append([][]int(nil), l.prefixes...)
	for _, u := range l.prefixes {
		for a := 0; a < l.numIn; a++ {
			words = append(words, qstore.Concat(u, []int{a}))
		}
	}
	return words
}

// checkCachedFolds verifies every cached row signature of the table against
// a from-scratch fold over the suffixes it covers. With complete set, every
// row of P and P·Σ must be cached over all of S (the state right after a
// closeAndBuild). The check reads only memoized cells: it must not ask the
// teacher anything.
func checkCachedFolds(t *testing.T, l *learner, complete bool) {
	t.Helper()
	asked := l.stats.OutputQueries
	for _, u := range tableWords(l) {
		node := l.memo.Find(u)
		sig, ok := l.rowCache[node]
		if node < 0 || !ok {
			if complete {
				t.Fatalf("row %v has no cached signature", u)
			}
			continue
		}
		if complete && sig.n != len(l.suffixes) {
			t.Fatalf("row %v folded over %d of %d suffixes after closing", u, sig.n, len(l.suffixes))
		}
		want, err := foldFromScratch(l, u, sig.n)
		if err != nil {
			t.Fatalf("row %v: from-scratch fold: %v", u, err)
		}
		if sig.acc != want {
			t.Fatalf("row %v: cached signature %d, from-scratch fold %d", u, sig.acc, want)
		}
	}
	if l.stats.OutputQueries != asked {
		t.Fatalf("fold check asked the teacher %d queries", l.stats.OutputQueries-asked)
	}
}

// learnChecked runs the L* loop of learner.run, checking every cached row
// signature after each closeAndBuild.
func learnChecked(t *testing.T, teacher Teacher, opt Options) (*mealy.Machine, *learner, error) {
	t.Helper()
	l := newLearner(context.Background(), teacher, opt)
	for {
		l.stats.Rounds++
		hyp, err := l.closeAndBuild()
		if err != nil {
			return nil, l, err
		}
		checkCachedFolds(t, l, true)
		ce, err := l.findCounterexample(hyp)
		if err != nil {
			return nil, l, err
		}
		if ce == nil {
			return hyp, l, nil
		}
		l.addCounterexample(ce)
	}
}

// TestRowCacheMatchesFromScratchFold: after every closing pass, for serial
// and batched teachers alike, each row of P and P·Σ carries a cached
// signature equal to the fold over all suffixes computed from scratch, and
// the checked loop reproduces Learn's machine and counters exactly.
func TestRowCacheMatchesFromScratchFold(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
		heavy bool // skipped under -short
	}{{"MRU", 4, false}, {"LRU", 4, false}, {"SRRIP-HP", 2, false}, {"New1", 4, true}} {
		if c.heavy && testing.Short() {
			continue
		}
		truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
		if err != nil {
			t.Fatal(err)
		}
		teachers := []struct {
			kind string
			make func() Teacher
		}{
			{"serial", func() Teacher { return MachineTeacher{M: truth} }},
			{"pool", func() Teacher { return poolTeacher{MachineTeacher{M: truth}} }},
			{"polca", func() Teacher { return polca.NewOracle(polca.NewSimProber(policy.MustNew(c.name, c.assoc))) }},
		}
		for _, tc := range teachers {
			t.Run(fmt.Sprintf("%s-%d/%s", c.name, c.assoc, tc.kind), func(t *testing.T) {
				opt := Options{Depth: 1}
				hyp, l, err := learnChecked(t, tc.make(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if eq, ce := hyp.Equivalent(truth); !eq {
					t.Fatalf("learned machine differs from truth, ce=%v", ce)
				}
				if len(l.rowCache) > len(l.prefixes)*(1+l.numIn) {
					t.Errorf("row cache holds %d entries, table has %d rows", len(l.rowCache), len(l.prefixes)*(1+l.numIn))
				}
				ref, err := Learn(context.Background(), tc.make(), opt)
				if err != nil {
					t.Fatal(err)
				}
				got, want := l.stats, ref.Stats
				got.Duration, want.Duration = 0, 0
				if got != want {
					t.Errorf("checked loop stats %+v, Learn stats %+v", got, want)
				}
			})
		}
	}
}

// errTeacherSpent is the error a failAfter teacher returns once its
// answers are spent.
var errTeacherSpent = errors.New("teacher spent")

// failAfter is a Teacher that answers its first n output queries and fails
// every later one. The count is shared, so poolTeacher's goroutines may
// spend it concurrently.
type failAfter struct {
	Teacher
	left *atomic.Int64
}

func newFailAfter(t Teacher, n int) failAfter {
	f := failAfter{Teacher: t, left: new(atomic.Int64)}
	f.left.Store(int64(n))
	return f
}

func (f failAfter) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	if f.left.Add(-1) < 0 {
		return nil, errTeacherSpent
	}
	return f.Teacher.OutputQuery(ctx, word)
}

// TestRowCacheSurvivesBudgetAbort: a teacher that fails in the middle of a
// row fold aborts the learn with its error without panicking, and leaves no
// partial fold in the cache — on the serial path and on the pool path,
// where a failing batch records none of its words.
func TestRowCacheSurvivesBudgetAbort(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("New1", 4), 0)
	if err != nil {
		t.Fatal(err)
	}

	// The first row (ε over one suffix per input) needs NumInputs queries;
	// a teacher that answers 2 stops its fold at the third cell.
	l := newLearner(context.Background(), newFailAfter(MachineTeacher{M: truth}, 2), Options{Depth: 1})
	if _, err := l.closeAndBuild(); !errors.Is(err, errTeacherSpent) {
		t.Fatalf("closeAndBuild after 2 answers: err %v, want the teacher's error", err)
	}
	if len(l.rowCache) != 0 {
		t.Fatalf("aborted fold left %d cached rows", len(l.rowCache))
	}

	for _, budget := range []int{1, 7, 60, 700, 5000, 30000} {
		for _, tc := range []struct {
			kind    string
			teacher Teacher
		}{
			{"serial", newFailAfter(MachineTeacher{M: truth}, budget)},
			{"pool", poolTeacher{newFailAfter(MachineTeacher{M: truth}, budget)}},
		} {
			t.Run(fmt.Sprintf("%s/%d", tc.kind, budget), func(t *testing.T) {
				_, l, err := learnChecked(t, tc.teacher, Options{Depth: 1})
				if !errors.Is(err, errTeacherSpent) {
					t.Fatalf("err %v, want the teacher's error", err)
				}
				checkCachedFolds(t, l, false)
			})
		}
	}
}
