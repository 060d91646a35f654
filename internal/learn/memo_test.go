package learn

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// TestTrieLearnerMatchesGroundTruth: the trie memo answers prefix queries
// for free; the machine it learns must be equivalent to the ground-truth
// machine extracted from the policy, with every test word answered
// consistently by the memo and the teacher.
func TestTrieLearnerMatchesGroundTruth(t *testing.T) {
	cases := []struct {
		name  string
		assoc int
	}{
		{"LRU", 4}, {"PLRU", 4}, {"New1", 2},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			name  string
			assoc int
		}{"SRRIP-FP", 4})
	}
	for _, c := range cases {
		truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		if eq, ce := res.Machine.Equivalent(truth); !eq {
			t.Errorf("%s-%d: trie learner diverged from the ground truth, ce=%v", c.name, c.assoc, ce)
		}
		if res.Stats.OutputQueries == 0 || res.Stats.TestWords == 0 {
			t.Errorf("%s-%d: implausible stats %+v", c.name, c.assoc, res.Stats)
		}
	}
}

// TestTriePrefixSharingSavesQueries: a query that is a proper prefix of an
// answered word must be a memo hit, not a teacher query.
func TestTriePrefixSharingSavesQueries(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)
	counter := newCountingTeacher(truth)
	l := &learner{engine: newEngine(context.Background(), counter, Options{Depth: 1})}
	long := []int{4, 0, 1, 4, 2}
	if _, err := l.query(long); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(long); cut++ {
		out, err := l.query(long[:cut])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, truth.Run(long[:cut])) {
			t.Fatalf("prefix answer wrong for %v", long[:cut])
		}
	}
	if got := counter.distinctWords(); got != 1 {
		t.Errorf("teacher consulted for %d words, want 1 (prefixes must hit the trie)", got)
	}
}

// TestConcurrentTrieInsertionUnderPoolTeacher drives a trie-backed Polca
// oracle (concurrent session parking and output recording) through a
// PoolTeacher from many goroutines over overlapping, prefix-sharing word
// sets. It exists to run under -race: the shared tries must be data-race
// free, and every answer must match the extracted ground truth.
func TestConcurrentTrieInsertionUnderPoolTeacher(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("SRRIP-HP", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := polca.NewOracle(polca.NewSimProber(policy.MustNew("SRRIP-HP", 4)),
		polca.WithParallelism(8), polca.WithSessionCap(16))
	pool := NewPoolTeacher(oracle, 8)

	words := qstore.Enumerate(truth.NumInputs, 3)[1:] // heavy prefix overlap
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				got, err := pool.OutputQueryBatch(context.Background(), words)
				if err != nil {
					errCh <- err
					return
				}
				for i, w := range words {
					if !reflect.DeepEqual(got[i], truth.Run(w)) {
						t.Errorf("goroutine %d: wrong batch answer for %v", g, w)
						return
					}
				}
			} else {
				for _, w := range words {
					got, err := oracle.OutputQuery(context.Background(), w)
					if err != nil {
						errCh <- err
						return
					}
					if !reflect.DeepEqual(got, truth.Run(w)) {
						t.Errorf("goroutine %d: wrong answer for %v", g, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := oracle.Stats(); st.MemoHits == 0 {
		t.Error("concurrent run never hit the shared trie")
	}
}
