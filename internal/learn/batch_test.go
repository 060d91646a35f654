package learn

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// countingTeacher is a concurrency-safe Teacher that records how often every
// distinct word is asked.
type countingTeacher struct {
	m *mealy.Machine

	mu    sync.Mutex
	asked map[string]int
}

func wordKey(w []int) string {
	var sb strings.Builder
	for i, a := range w {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(a))
	}
	return sb.String()
}

func newCountingTeacher(m *mealy.Machine) *countingTeacher {
	return &countingTeacher{m: m, asked: make(map[string]int)}
}

func (t *countingTeacher) NumInputs() int { return t.m.NumInputs }

func (t *countingTeacher) OutputQuery(_ context.Context, word []int) ([]int, error) {
	t.mu.Lock()
	t.asked[wordKey(word)]++
	t.mu.Unlock()
	return t.m.Run(word), nil
}

// maxAskCount returns the highest per-word ask count.
func (t *countingTeacher) maxAskCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	max := 0
	for _, n := range t.asked {
		if n > max {
			max = n
		}
	}
	return max
}

func (t *countingTeacher) distinctWords() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.asked)
}

// TestPoolTeacherBatchMatchesSerial: a batch answer must equal the serial
// answers word by word, including duplicated words within one batch.
func TestPoolTeacherBatchMatchesSerial(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)
	pool := NewPoolTeacher(newCountingTeacher(truth), 4)
	words := [][]int{
		{0}, {1, 2, 3}, {4, 4, 4, 4}, {0}, {1, 2, 3}, {2, 0, 4, 1, 3},
	}
	got, err := pool.OutputQueryBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		want := truth.Run(w)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("word %v: batch answered %v, want %v", w, got[i], want)
		}
	}
}

// TestBatchedLearningIsDeterministic: learning through the worker pool must
// produce the exact same machine as the serial reference — not just a
// trace-equivalent one — because the batched learner examines answers in the
// same order the serial learner asks them.
func TestBatchedLearningIsDeterministic(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
	}{
		{"PLRU", 4}, {"MRU", 4}, {"SRRIP-HP", 2}, {"New1", 2},
	} {
		truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		batched, err := Learn(context.Background(), NewPoolTeacher(MachineTeacher{M: truth}, 8), Options{Depth: 1, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		bm, sm := batched.Machine, serial.Machine
		if bm.NumStates != sm.NumStates || bm.Init != sm.Init ||
			!reflect.DeepEqual(bm.Next, sm.Next) || !reflect.DeepEqual(bm.Out, sm.Out) {
			t.Errorf("%s-%d: batched learning diverged from the serial reference", c.name, c.assoc)
		}
		if eq, ce := bm.Equivalent(truth); !eq {
			t.Errorf("%s-%d: batched machine differs from truth, ce=%v", c.name, c.assoc, ce)
		}
		if batched.Stats.TestWords != serial.Stats.TestWords {
			t.Errorf("%s-%d: batched run examined %d test words, serial %d — trajectories diverged",
				c.name, c.assoc, batched.Stats.TestWords, serial.Stats.TestWords)
		}
	}
}

// TestBatchedPolcaLearningIsDeterministic runs the §6 pipeline at two
// WithParallelism settings. A simulator oracle answers through its one
// serialized engine either way, so the learned machines and the oracle
// counters must be identical.
func TestBatchedPolcaLearningIsDeterministic(t *testing.T) {
	serialOracle := polca.NewOracle(polca.NewSimProber(policy.MustNew("MRU", 4)), polca.WithParallelism(1))
	serial, err := Learn(context.Background(), serialOracle, Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	parOracle := polca.NewOracle(polca.NewSimProber(policy.MustNew("MRU", 4)), polca.WithParallelism(8))
	batched, err := Learn(context.Background(), parOracle, Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := batched.Machine.Equivalent(serial.Machine); !eq {
		t.Fatalf("batched Polca learning diverged from serial, ce=%v", ce)
	}
	if batched.Machine.NumStates != 14 {
		t.Errorf("learned %d states, want 14 (MRU-4)", batched.Machine.NumStates)
	}
	if ss, ps := serialOracle.Stats(), parOracle.Stats(); ss != ps {
		t.Errorf("oracle counters diverged: %+v vs %+v", ss, ps)
	}
}

// TestSharedQueryCacheNeverReasks: the pool's mutex-guarded cache must
// answer every repeated word without consulting the wrapped teacher again —
// within a batch, across batches, across serial lookups, and across whole
// learning runs sharing the adapter.
func TestSharedQueryCacheNeverReasks(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("PLRU", 4), 0)
	counter := newCountingTeacher(truth)
	pool := NewPoolTeacher(counter, 4)

	if _, err := Learn(context.Background(), pool, Options{Depth: 1, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	if max := counter.maxAskCount(); max > 1 {
		t.Errorf("a word was asked %d times during learning", max)
	}
	asked := counter.distinctWords()
	if asked == 0 {
		t.Fatal("teacher never consulted")
	}
	if cached := pool.CachedWords(); cached != asked {
		t.Errorf("cache holds %d words, teacher answered %d", cached, asked)
	}

	// A second learning run over the same adapter is answered entirely from
	// the shared cache.
	if _, err := Learn(context.Background(), pool, Options{Depth: 1, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	if counter.distinctWords() != asked {
		t.Error("relearning consulted the teacher for new words")
	}
	if max := counter.maxAskCount(); max > 1 {
		t.Errorf("relearning re-asked a seen word (%d times)", max)
	}
}

// TestConcurrentBatchTeacherQueries drives one PoolTeacher from many
// goroutines mixing batched and single queries over overlapping word sets.
// Run with -race: it exists to prove the shared cache and worker pool are
// data-race free.
func TestConcurrentBatchTeacherQueries(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)
	counter := newCountingTeacher(truth)
	pool := NewPoolTeacher(counter, 4)

	words := qstore.Enumerate(truth.NumInputs, 3)[1:] // skip ε
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
					got, err := pool.OutputQuery(context.Background(), w)
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
	// Concurrent first asks may race past the cache check (at worst one ask
	// per goroutine), but never more — every pass after the first write is
	// answered from the cache.
	if max := counter.maxAskCount(); max > 8 {
		t.Errorf("a word reached the teacher %d times under concurrency", max)
	}
}

// TestConcurrentOracleBatchQueries exercises the batched Polca oracle under
// the race detector: parallel session probing with a shared memo table.
func TestConcurrentOracleBatchQueries(t *testing.T) {
	oracle := polca.NewOracle(polca.NewSimProber(policy.MustNew("LRU", 4)),
		polca.WithParallelism(8), polca.WithDeterminismChecks(16))
	truthOracle := polca.NewOracle(polca.NewSimProber(policy.MustNew("LRU", 4)))

	words := qstore.Enumerate(oracle.NumInputs(), 3)[1:]
	got, err := oracle.OutputQueryBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		want, err := truthOracle.OutputQuery(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("word %v: batch answered %v, serial oracle %v", w, got[i], want)
		}
	}
}

// An out-of-alphabet word has no trie path; PoolTeacher must hand it to the
// wrapped teacher (which rejects it) instead of panicking on a trie edge.
func TestPoolTeacherOutOfAlphabetWord(t *testing.T) {
	oracle := polca.NewOracle(polca.NewSimProber(policy.MustNew("LRU", 4)))
	pt := NewPoolTeacher(oracle, 2)
	// Populate the root's child slice first so the panic path would be live.
	valid := []int{0, 1, 4}
	want, err := oracle.OutputQuery(context.Background(), valid)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pt.OutputQuery(context.Background(), valid); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("valid word: got %v, %v; want %v", got, err, want)
	}
	if _, err := pt.OutputQuery(context.Background(), []int{99}); err == nil {
		t.Fatal("expected error for out-of-alphabet word")
	}
	if _, err := pt.OutputQueryBatch(context.Background(), [][]int{valid, {99}}); err == nil {
		t.Fatal("expected batch error for out-of-alphabet word")
	}
	// The valid word must still be answerable after the failed batch.
	if got, err := pt.OutputQuery(context.Background(), valid); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("valid word after failed batch: got %v, %v; want %v", got, err, want)
	}
}
