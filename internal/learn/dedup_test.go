package learn

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/mealy"
	"repro/internal/policy"
)

// onceTeacher is a BatchTeacher over MachineTeacher that records every word
// it is asked, single or batched, and reports any word asked twice.
type onceTeacher struct {
	MachineTeacher
	asked   map[string]bool
	repeats []string
}

func (t *onceTeacher) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	if k := wordKey(word); t.asked[k] {
		t.repeats = append(t.repeats, k)
	} else {
		t.asked[k] = true
	}
	return t.MachineTeacher.OutputQuery(ctx, word)
}

func (t *onceTeacher) OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error) {
	outs := make([][]int, len(words))
	for i, w := range words {
		var err error
		if outs[i], err = t.OutputQuery(ctx, w); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// TestNoWordAskedTwice: the memo answers every word it has seen, and the
// suites' and prefetch lists' dedup keeps a batch from holding a word twice,
// so no learner asks its teacher the same word twice, whatever the
// algorithm, suite and batch width. Random-walk words and the tree's
// prefetch words are the ones that repeat in what the learner generates.
// batch-1 learns from a teacher without a hint, batch1 from one hinting 1
// (both serial), and batch64 from one hinting 16 (4x16 words per chunk).
func TestNoWordAskedTwice(t *testing.T) {
	machines := []struct {
		name  string
		assoc int
	}{{"New1", 4}, {"SRRIP-HP", 4}}
	for _, c := range machines {
		truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algo{AlgoLStar, AlgoTree} {
			for _, suite := range []Suite{SuiteWp, SuiteW, SuiteRandomWalk} {
				for _, b := range []struct{ batch, hint int }{{-1, 0}, {1, 1}, {64, 16}} {
					name := fmt.Sprintf("%s-%d/%v/%v/batch%d", c.name, c.assoc, algo, suite, b.batch)
					t.Run(name, func(t *testing.T) {
						if testing.Short() && (b.batch == 1 || suite == SuiteW && c.name == "New1") {
							t.Skip("-short: batch 1 takes batch -1's serial path; the W suite runs on SRRIP-HP-4")
						}
						teacher := &onceTeacher{MachineTeacher: MachineTeacher{M: truth}, asked: make(map[string]bool)}
						var learnt Teacher = teacher
						if b.hint > 0 {
							learnt = hintTeacher{teacher, b.hint}
						}
						res, err := Learn(context.Background(), learnt, Options{
							Algo: algo, Suite: suite, Depth: 1,
							RandomWalkSteps: 300, RandomWalkSeed: 3,
						})
						if err != nil {
							t.Fatal(err)
						}
						if len(teacher.repeats) > 0 {
							t.Fatalf("%d words asked more than once, first %v", len(teacher.repeats), teacher.repeats[0])
						}
						if res.Stats.OutputQueries != len(teacher.asked) {
							t.Fatalf("learner counted %d queries, teacher saw %d distinct words", res.Stats.OutputQueries, len(teacher.asked))
						}
					})
				}
			}
		}
	}
}
