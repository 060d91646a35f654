package polca

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/mealy"
	"repro/internal/policy"
)

// tenPolicies mirrors the published models/ artifact list.
var tenPolicies = []struct {
	name  string
	assoc int
}{
	{"FIFO", 4}, {"LRU", 4}, {"PLRU", 4}, {"PLRU", 8}, {"MRU", 4},
	{"LIP", 4}, {"SRRIP-HP", 4}, {"SRRIP-FP", 4}, {"New1", 4}, {"New2", 4},
}

// freshOnly hides every optional capability of a prober and routes Probe
// through ProbeFresh semantics: a SimProber re-executes the whole word from
// reset on every call, so each answer is ground truth by construction.
type freshOnly struct{ p *SimProber }

func (f freshOnly) Assoc() int                     { return f.p.Assoc() }
func (f freshOnly) InitialContent() []blocks.Block { return f.p.InitialContent() }
func (f freshOnly) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	return f.p.Probe(ctx, q)
}
func (f freshOnly) ProbeFresh(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	return f.p.Probe(ctx, q)
}
func (f freshOnly) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	return f.p.ProbeTrace(ctx, q, k)
}

var _ FreshProber = freshOnly{}

// TestTrieOracleMatchesFreshGroundTruth: for every published policy, the
// trie-backed oracle — on both the engine path (simulator prober) and the
// reset-rooted probe path (slow prober) — answers exactly like the audit's
// unmemoized loop whose every probe is a fresh execution, and like the
// machine extracted from the policy itself.
func TestTrieOracleMatchesFreshGroundTruth(t *testing.T) {
	for _, c := range tenPolicies {
		c := c
		t.Run(c.name, func(t *testing.T) {
			truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
			if err != nil {
				t.Fatal(err)
			}
			fast := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)))
			slow := NewOracle(SlowProber{P: NewSimProber(policy.MustNew(c.name, c.assoc))})
			fresh := NewOracle(freshOnly{p: NewSimProber(policy.MustNew(c.name, c.assoc))})

			rng := rand.New(rand.NewSource(int64(31 + c.assoc)))
			numIn := truth.NumInputs
			trials := 50
			if testing.Short() {
				trials = 20
			}
			for i := 0; i < trials; i++ {
				word := make([]int, 1+rng.Intn(14))
				for j := range word {
					word[j] = rng.Intn(numIn)
				}
				want, err := fresh.outputQueryProbes(context.Background(), word)
				if err != nil {
					t.Fatal(err)
				}
				mw := truth.Run(word)
				a, err1 := fast.OutputQuery(context.Background(), word)
				b, err2 := slow.OutputQuery(context.Background(), word)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: oracle errors %v / %v", c.name, err1, err2)
				}
				for j := range word {
					if a[j] != want[j] || b[j] != want[j] || mw[j] != want[j] {
						t.Fatalf("%s: word %v: engine %v, probes %v, machine %v, fresh %v",
							c.name, word, a, b, mw, want)
					}
				}
			}
			if st := fast.Stats(); st.MemoHits == 0 {
				t.Error("trie oracle never answered from the prefix tree")
			}
		})
	}
}

// TestTrieResumeSkipsPrefixReplay: extending an answered word by one symbol
// must cost O(1) prober accesses on the engine path — the trie resumes from
// the table state recorded at the prefix's node instead of replaying the
// prefix.
func TestTrieResumeSkipsPrefixReplay(t *testing.T) {
	oracle := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	word := []int{4, 0, 4, 1, 2, 3, 0, 1}
	if _, err := oracle.OutputQuery(context.Background(), word); err != nil {
		t.Fatal(err)
	}
	before := oracle.Stats()
	ext := append(append([]int(nil), word...), 0)
	if _, err := oracle.OutputQuery(context.Background(), ext); err != nil {
		t.Fatal(err)
	}
	after := oracle.Stats()
	delta := after.Accesses - before.Accesses
	// One new Ln symbol: exactly one access when resumed from the recorded
	// state; a full replay would have cost len(word)+1.
	if delta != 1 {
		t.Errorf("extension cost %d accesses, want O(1) (prefix replay not skipped)", delta)
	}
	if after.MemoHits <= before.MemoHits {
		t.Error("extension did not consume the recorded prefix")
	}
}
