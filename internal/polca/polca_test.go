package polca

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/mealy"
	"repro/internal/policy"
)

var learnedPolicies = []string{"FIFO", "LRU", "PLRU", "MRU", "LIP", "SRRIP-HP", "SRRIP-FP", "New1", "New2"}

// TestTheorem31: Polca's output queries coincide with the policy's own
// semantics — for every input word, the outputs recovered from hit/miss
// probing equal direct execution of the (hidden) policy. This is the
// computational content of Theorem 3.1.
func TestTheorem31(t *testing.T) {
	for _, name := range learnedPolicies {
		name := name
		t.Run(name, func(t *testing.T) {
			pol := policy.MustNew(name, 4)
			truth, err := mealy.FromPolicy(pol, 0)
			if err != nil {
				t.Fatal(err)
			}
			oracle := NewOracle(NewSimProber(policy.MustNew(name, 4)))
			f := func(raw []uint8) bool {
				word := make([]int, len(raw))
				for i, r := range raw {
					word[i] = int(r) % truth.NumInputs
				}
				got, err := oracle.OutputQuery(context.Background(), word)
				if err != nil {
					t.Fatalf("oracle error: %v", err)
				}
				want := truth.Run(word)
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSlowAndFastPathsAgree: the faithful reset-rooted probe path and the
// engine path produce identical answers.
func TestSlowAndFastPathsAgree(t *testing.T) {
	for _, name := range []string{"LRU", "PLRU", "New1"} {
		fast := NewOracle(NewSimProber(policy.MustNew(name, 4)))
		slow := NewOracle(SlowProber{P: NewSimProber(policy.MustNew(name, 4))})
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 60; i++ {
			word := make([]int, 1+rng.Intn(12))
			for j := range word {
				word[j] = rng.Intn(5)
			}
			a, err1 := fast.OutputQuery(context.Background(), word)
			b, err2 := slow.OutputQuery(context.Background(), word)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: errors %v / %v", name, err1, err2)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s: paths disagree on %v: %v vs %v", name, word, a, b)
				}
			}
		}
	}
}

func TestMembershipAlgorithmOne(t *testing.T) {
	// For LRU-2 the first Evct frees line 0 (Example 2.2).
	oracle := NewOracle(NewSimProber(policy.MustNew("LRU", 2)))
	ok, err := oracle.Membership(context.Background(), []Pair{
		{In: 2, Out: 0},             // Evct -> line 0
		{In: 2, Out: 1},             // Evct -> line 1
		{In: 0, Out: policy.Bottom}, // Ln(0) -> ⊥
		{In: 2, Out: 1},             // line 0 was just refreshed
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("valid trace rejected")
	}
	ok, err = oracle.Membership(context.Background(), []Pair{{In: 2, Out: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("invalid trace accepted")
	}
}

func TestMemoization(t *testing.T) {
	prober := SlowProber{P: NewSimProber(policy.MustNew("LRU", 4))}
	oracle := NewOracle(prober)
	word := []int{4, 0, 4, 1, 4}
	if _, err := oracle.OutputQuery(context.Background(), word); err != nil {
		t.Fatal(err)
	}
	first := oracle.Stats()
	if _, err := oracle.OutputQuery(context.Background(), word); err != nil {
		t.Fatal(err)
	}
	second := oracle.Stats()
	if second.Probes != first.Probes {
		t.Errorf("repeated query issued %d new probes", second.Probes-first.Probes)
	}
	if second.MemoHits <= first.MemoHits {
		t.Error("repeated query did not hit the memo table")
	}
}

func TestNondeterminismDetection(t *testing.T) {
	// A randomly evicting policy must be flagged, not silently mislearned
	// (this is how the Haswell L3 failure of Table 4 manifests). Two
	// detection channels exist: the determinism audit on the engine path,
	// and the inherent cross-probe checks of the reset-rooted path.
	t.Run("audit", func(t *testing.T) {
		oracle := NewOracle(NewSimProber(policy.NewRandom(4, 99)), WithDeterminismChecks(1))
		if !detectsNondeterminism(t, oracle) {
			t.Error("determinism audit never fired")
		}
	})
	t.Run("probes", func(t *testing.T) {
		oracle := NewOracle(SlowProber{P: NewSimProber(policy.NewRandom(4, 17))})
		if !detectsNondeterminism(t, oracle) {
			t.Error("reset-rooted probing never detected the inconsistency")
		}
	})
}

// replayingProber models a probing stack with a result cache below the
// oracle (a cachequery frontend's result cache): Probe memoizes its own answers and
// replays them forever; ProbeFresh re-executes against the real system.
type replayingProber struct {
	inner      Prober
	memo       map[string]cache.Outcome
	freshCalls int
}

func newReplayingProber(inner Prober) *replayingProber {
	return &replayingProber{inner: inner, memo: make(map[string]cache.Outcome)}
}

func (p *replayingProber) Assoc() int                     { return p.inner.Assoc() }
func (p *replayingProber) InitialContent() []blocks.Block { return p.inner.InitialContent() }

func (p *replayingProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	key := ""
	for _, b := range q {
		key += string(b) + " "
	}
	if oc, ok := p.memo[key]; ok {
		return oc, nil
	}
	oc, err := p.inner.Probe(ctx, q)
	if err == nil {
		p.memo[key] = oc
	}
	return oc, err
}

func (p *replayingProber) ProbeFresh(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	p.freshCalls++
	return p.inner.Probe(ctx, q)
}

// TestDeterminismAuditUsesFreshProbes: on a caching stack the audit must
// re-execute through ProbeFresh — asking Probe again would replay the cached
// first answer and the audit could never fire.
func TestDeterminismAuditUsesFreshProbes(t *testing.T) {
	rp := newReplayingProber(SlowProber{P: NewSimProber(policy.MustNew("LRU", 4))})
	oracle := NewOracle(rp, WithDeterminismChecks(1))
	if _, err := oracle.OutputQuery(context.Background(), []int{4, 0}); err != nil {
		t.Fatal(err)
	}
	if rp.freshCalls == 0 {
		t.Fatal("determinism audit never issued a fresh probe")
	}
	// End to end: a nondeterministic cache hidden behind the replay cache
	// must still be flagged.
	nd := newReplayingProber(SlowProber{P: NewSimProber(policy.NewRandom(4, 99))})
	if !detectsNondeterminism(t, NewOracle(nd, WithDeterminismChecks(1))) {
		t.Error("audit failed to see through the result cache")
	}
}

func detectsNondeterminism(t *testing.T, oracle *Oracle) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		word := make([]int, 6)
		for j := range word {
			word[j] = rng.Intn(5)
		}
		if _, err := oracle.OutputQuery(context.Background(), word); err != nil {
			if !errors.Is(err, ErrNondeterministic) {
				t.Fatalf("unexpected error type: %v", err)
			}
			return true
		}
	}
	return false
}

// countingConcurrentProber is a concurrency-safe prober that counts probe
// executions per key, for asserting single-flight deduplication.
type countingConcurrentProber struct {
	inner  Prober
	mu     sync.Mutex
	counts map[string]int
}

func (p *countingConcurrentProber) Assoc() int                     { return p.inner.Assoc() }
func (p *countingConcurrentProber) InitialContent() []blocks.Block { return p.inner.InitialContent() }
func (p *countingConcurrentProber) ConcurrentProbes() bool         { return true }

func (p *countingConcurrentProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := ""
	for _, b := range q {
		key += string(b) + " "
	}
	p.counts[key]++
	return p.inner.Probe(ctx, q)
}

// TestProbeSingleFlight: concurrent batch goroutines that miss the memo on
// the same probe key must not duplicate the execution — the batch below
// repeats one word eight times, yet every underlying probe runs exactly once.
func TestProbeSingleFlight(t *testing.T) {
	cp := &countingConcurrentProber{
		inner:  SlowProber{P: NewSimProber(policy.MustNew("LRU", 4))},
		counts: make(map[string]int),
	}
	oracle := NewOracle(cp, WithParallelism(8))
	word := []int{4, 0, 4, 1}
	words := make([][]int, 8)
	for i := range words {
		words[i] = word
	}
	outs, err := oracle.OutputQueryBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(outs); i++ {
		for j := range outs[0] {
			if outs[i][j] != outs[0][j] {
				t.Fatalf("batch answers diverge: %v vs %v", outs[i], outs[0])
			}
		}
	}
	for key, n := range cp.counts {
		if n != 1 {
			t.Errorf("probe %q executed %d times, want 1 (single-flight)", key, n)
		}
	}
}

func TestOracleStatsAccounting(t *testing.T) {
	oracle := NewOracle(NewSimProber(policy.MustNew("PLRU", 4)))
	if _, err := oracle.OutputQuery(context.Background(), []int{4, 4, 0}); err != nil {
		t.Fatal(err)
	}
	st := oracle.Stats()
	if st.OutputQueries != 1 || st.Symbols != 3 {
		t.Errorf("stats %+v", st)
	}
	if st.Accesses == 0 {
		t.Error("no accesses recorded")
	}
}

func TestOracleRejectsBadInput(t *testing.T) {
	oracle := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if _, err := oracle.OutputQuery(context.Background(), []int{7}); err == nil {
		t.Error("out-of-range input accepted")
	}
}

// callCountingProber counts every call that reaches the prober.
type callCountingProber struct {
	inner Prober
	calls int
}

func (p *callCountingProber) Assoc() int                     { return p.inner.Assoc() }
func (p *callCountingProber) InitialContent() []blocks.Block { return p.inner.InitialContent() }
func (p *callCountingProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	p.calls++
	return p.inner.Probe(ctx, q)
}

// TestProbePathRejectsBadInputBeforeProbing: on the reset-rooted probe
// path a word with an out-of-range symbol is rejected before any counter
// moves or any probe runs — a trailing bad symbol must not cost the probes
// of the valid prefix, and a bad word anywhere in a batch must not cost
// the probes of the words before it.
func TestProbePathRejectsBadInputBeforeProbing(t *testing.T) {
	for _, tc := range []struct {
		name string
		ask  func(*Oracle) error
	}{
		{"query", func(o *Oracle) error {
			_, err := o.OutputQuery(context.Background(), []int{0, 4, 7})
			return err
		}},
		{"batch", func(o *Oracle) error {
			_, err := o.OutputQueryBatch(context.Background(), [][]int{{1, 2}, {0, -1}})
			return err
		}},
	} {
		cp := &callCountingProber{inner: SlowProber{P: NewSimProber(policy.MustNew("LRU", 4))}}
		o := NewOracle(cp)
		if err := tc.ask(o); err == nil {
			t.Errorf("%s: out-of-range input accepted", tc.name)
		}
		if st := o.Stats(); st != (Stats{}) {
			t.Errorf("%s: rejected input left stats %+v, want zero", tc.name, st)
		}
		if cp.calls != 0 {
			t.Errorf("%s: rejected input cost %d prober calls, want 0", tc.name, cp.calls)
		}
	}
}

func TestSimProberProbe(t *testing.T) {
	p := NewSimProber(policy.MustNew("LRU", 2))
	oc, err := p.Probe(context.Background(), []string{"A", "B", "C", "A"})
	if err != nil || oc != cache.Miss {
		t.Errorf("A B C A? = %v, want Miss", oc)
	}
	oc, _ = p.Probe(context.Background(), []string{"A", "B", "C", "B"})
	if oc != cache.Hit {
		t.Errorf("A B C B? = %v, want Hit", oc)
	}
}
