package learn

import (
	"context"
	"errors"
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

func (t *countingTeacher) distinctWords() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.asked)
}

// poolTeacher turns a Teacher into a BatchTeacher that answers every word
// of a batch on its own goroutine. Its hint of 8 makes the learner form
// real prefetch chunks, so -race covers the learner's batch path.
type poolTeacher struct{ Teacher }

func (poolTeacher) BatchHint() int { return 8 }

func (p poolTeacher) OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error) {
	out := make([][]int, len(words))
	errs := make([]error, len(words))
	var wg sync.WaitGroup
	for i, w := range words {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = p.OutputQuery(ctx, w)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// TestBatchedLearningIsDeterministic: learning through a batch teacher must
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
		batched, err := Learn(context.Background(), hintTeacher{poolTeacher{MachineTeacher{M: truth}}, 4}, Options{Depth: 1})
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

// hintTeacher is a BatchTeacher advertising an arbitrary fixed BatchHint.
type hintTeacher struct {
	BatchTeacher
	hint int
}

func (h hintTeacher) BatchHint() int { return h.hint }

// TestResolveBatchFromHint: the prefetch chunk is resolved once per learn
// as 4x the teacher's hint capped at MaxBatchSize; a hint of 1 or a teacher
// without batch support keep the loop exactly serial.
func TestResolveBatchFromHint(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("LRU", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	serial := MachineTeacher{M: truth}
	batched := func(hint int) Teacher { return hintTeacher{poolTeacher{serial}, hint} }
	cases := []struct {
		name    string
		teacher Teacher
		want    int
	}{
		{"hint 2", batched(2), 8},
		{"hint 32 capped", batched(32), MaxBatchSize},
		{"hint 1", batched(1), 1},
		{"serial teacher", serial, 1},
	}
	for _, c := range cases {
		if got := resolveBatch(c.teacher); got != c.want {
			t.Errorf("%s: chunk %d, want %d", c.name, got, c.want)
		}
	}
}
