package learn

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// learnAndCheck learns from a machine teacher and verifies exact trace
// equivalence plus minimality of the result.
func learnAndCheck(t *testing.T, truth *mealy.Machine, opt Options) *Result {
	t.Helper()
	res, err := Learn(context.Background(), MachineTeacher{M: truth}, opt)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if eq, ce := res.Machine.Equivalent(truth); !eq {
		t.Fatalf("learned machine differs from truth, ce=%v", ce)
	}
	min := truth.Minimize()
	if res.Machine.NumStates != min.NumStates {
		t.Errorf("learned %d states, minimal is %d", res.Machine.NumStates, min.NumStates)
	}
	return res
}

func TestLearnFromMachines(t *testing.T) {
	cases := []struct {
		name  string
		assoc int
	}{
		{"FIFO", 4}, {"FIFO", 8},
		{"LRU", 2}, {"LRU", 4},
		{"PLRU", 4},
		{"MRU", 4}, {"MRU", 6},
		{"LIP", 4},
		{"SRRIP-HP", 2},
		{"SRRIP-FP", 2},
		{"New1", 2},
		{"New2", 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
			if err != nil {
				t.Fatal(err)
			}
			res := learnAndCheck(t, truth, Options{Depth: 1})
			if res.Stats.OutputQueries == 0 || res.Stats.Rounds == 0 {
				t.Errorf("implausible stats %+v", res.Stats)
			}
		})
	}
}

// TestLearnViaPolca is the §6 pipeline in miniature: learner -> Polca ->
// simulated cache, checked against the ground-truth automaton.
func TestLearnViaPolca(t *testing.T) {
	cases := []struct {
		name   string
		assoc  int
		states int
	}{
		{"FIFO", 8, 8},
		{"LRU", 4, 24},
		{"PLRU", 4, 8},
		{"MRU", 4, 14},
		{"LIP", 4, 24},
		{"SRRIP-HP", 2, 12},
		{"SRRIP-FP", 2, 16},
		{"New1", 4, 160},
		{"New2", 4, 175},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			oracle := polca.NewOracle(polca.NewSimProber(policy.MustNew(c.name, c.assoc)))
			res, err := Learn(context.Background(), oracle, Options{Depth: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Machine.NumStates != c.states {
				t.Errorf("learned %d states, paper reports %d", res.Machine.NumStates, c.states)
			}
			truth, _ := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
			if eq, ce := res.Machine.Equivalent(truth); !eq {
				t.Errorf("learned machine wrong, ce=%v", ce)
			}
		})
	}
}

func TestWpAndWSuitesLearnTheSameMachine(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)
	wp, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1, Suite: SuiteWp})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1, Suite: SuiteW})
	if err != nil {
		t.Fatal(err)
	}
	if eq, _ := wp.Machine.Equivalent(w.Machine); !eq {
		t.Fatal("Wp and W learned different machines")
	}
	if eq, _ := wp.Machine.Equivalent(truth); !eq {
		t.Fatal("Wp-learned machine differs from truth")
	}
	// The Wp suite must be meaningfully smaller — that is its point.
	if wp.Stats.TestWords >= w.Stats.TestWords {
		t.Errorf("Wp suite (%d words) not smaller than W suite (%d words)",
			wp.Stats.TestWords, w.Stats.TestWords)
	}
}

func TestIdentificationSetsSeparateStates(t *testing.T) {
	hyp, _ := mealy.FromPolicy(policy.MustNew("PLRU", 4), 0)
	w := hyp.CharacterizingSet()
	ident := identificationSets(hyp, w)
	for s := 0; s < hyp.NumStates; s++ {
		if len(ident[s]) == 0 && hyp.NumStates > 1 {
			t.Fatalf("state %d has an empty identification set", s)
		}
		for t2 := 0; t2 < hyp.NumStates; t2++ {
			if t2 == s {
				continue
			}
			distinguished := false
			for _, word := range ident[s] {
				a, b := hyp.RunFrom(s, word), hyp.RunFrom(t2, word)
				for i := range a {
					if a[i] != b[i] {
						distinguished = true
					}
				}
			}
			if !distinguished {
				t.Fatalf("identification set of state %d does not separate it from %d", s, t2)
			}
		}
	}
}

func TestLearnWithRandomWalkOracle(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)
	res, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Suite: SuiteRandomWalk, RandomWalkSteps: 200000, RandomWalkSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := res.Machine.Equivalent(truth); !eq {
		t.Errorf("random-walk learning failed, ce=%v", ce)
	}
}

func TestStateBudgetAborts(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("LRU", 4), 0)
	_, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1, MaxStates: 5})
	if !errors.Is(err, ErrStateBudget) {
		t.Errorf("err = %v, want ErrStateBudget", err)
	}
}

func TestNondeterministicTeacherPropagates(t *testing.T) {
	// A randomly evicting cache must abort learning: either Polca's
	// determinism audit fires, or the hypothesis exceeds any sane state
	// budget (the paper's symptom of a wrong reset sequence, §7.1).
	oracle := polca.NewOracle(polca.NewSimProber(policy.NewRandom(4, 3)),
		polca.WithDeterminismChecks(8))
	_, err := Learn(context.Background(), oracle, Options{Depth: 1, MaxStates: 3000})
	if err == nil {
		t.Fatal("learning a nondeterministic cache succeeded")
	}
	if !errors.Is(err, polca.ErrNondeterministic) && !errors.Is(err, ErrStateBudget) {
		t.Errorf("err = %v, want ErrNondeterministic or ErrStateBudget", err)
	}
}

func TestDepthZeroStillLearnsSimplePolicies(t *testing.T) {
	// With k=0 the suite is only (|H|)-complete, but FIFO is easily
	// distinguished and still converges to the right machine.
	truth, _ := mealy.FromPolicy(policy.MustNew("FIFO", 4), 0)
	res, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 0})
	if err != nil {
		t.Fatal(err)
	}
	if eq, _ := res.Machine.Equivalent(truth); !eq {
		t.Error("depth-0 learning failed on FIFO")
	}
}

func TestLearnRejectsBadOptions(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("FIFO", 2), 0)
	if _, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: -1}); err == nil {
		t.Error("negative depth accepted")
	}
}

func TestEnumerateWords(t *testing.T) {
	words := qstore.Enumerate(2, 2)
	// ε, 0, 1, 00, 01, 10, 11
	if len(words) != 7 {
		t.Fatalf("qstore.Enumerate(2,2) returned %d words", len(words))
	}
	if len(words[0]) != 0 {
		t.Error("first word not ε")
	}
}

func TestLearnTrivialSingleStatePolicy(t *testing.T) {
	// A direct-mapped set (associativity 1) has a single control state:
	// every Evct frees line 0. The learner must handle the degenerate
	// table gracefully.
	truth, err := mealy.FromPolicy(policy.MustNew("FIFO", 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.NumStates != 1 {
		t.Errorf("learned %d states, want 1", res.Machine.NumStates)
	}
	if eq, _ := res.Machine.Equivalent(truth); !eq {
		t.Error("trivial machine learned wrongly")
	}
}
