package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
)

// TestLStarTrajectoryDeterministic pins the L* learner's exact trajectory
// (every learn.Stats counter except Duration) for the default pipeline —
// L*, Wp, depth 1, through NewSimOracle with default SimOptions — and for a
// serial MachineTeacher learn. Table bookkeeping (cached row folds, the
// resumed closing scan) must not change which queries are asked, in which
// order, or how many rounds it takes; only wall-clock time may move.
func TestLStarTrajectoryDeterministic(t *testing.T) {
	cases := []struct {
		policy string
		assoc  int
		serial bool // learn from learn.MachineTeacher instead of the oracle
		heavy  bool // skipped under -short
		want   learn.Stats
	}{
		{"New1", 4, false, false, learn.Stats{OutputQueries: 73926, QuerySymbols: 814094, Rounds: 15, TestWords: 58639, Counterexample: 14}},
		{"New2", 4, false, false, learn.Stats{OutputQueries: 88173, QuerySymbols: 1196636, Rounds: 15, TestWords: 46545, Counterexample: 14}},
		{"SRRIP-HP", 4, false, false, learn.Stats{OutputQueries: 41320, QuerySymbols: 484685, Rounds: 8, TestWords: 49078, Counterexample: 7}},
		{"MRU", 8, false, false, learn.Stats{OutputQueries: 163494, QuerySymbols: 1980946, Rounds: 8, TestWords: 96794, Counterexample: 7}},
		{"SRRIP-FP", 4, false, true, learn.Stats{OutputQueries: 224313, QuerySymbols: 3185784, Rounds: 27, TestWords: 316398, Counterexample: 26}},
		{"New1", 4, true, false, learn.Stats{OutputQueries: 73734, QuerySymbols: 812468, Rounds: 15, TestWords: 58639, Counterexample: 14}},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s-%d", c.policy, c.assoc)
		if c.serial {
			name += "/serial"
		}
		t.Run(name, func(t *testing.T) {
			if c.heavy && testing.Short() {
				t.Skip("SRRIP-FP-4 learns 256 states; run without -short")
			}
			truth, err := mealy.FromPolicy(policy.MustNew(c.policy, c.assoc), 0)
			if err != nil {
				t.Fatal(err)
			}
			var teacher learn.Teacher = learn.MachineTeacher{M: truth}
			if !c.serial {
				oracle, _, _, err := NewSimOracle(c.policy, c.assoc, SimOptions{})
				if err != nil {
					t.Fatal(err)
				}
				teacher = oracle
			}
			res, err := learn.Learn(context.Background(), teacher, learn.Options{Depth: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Stats
			got.Duration = 0
			if got != c.want {
				t.Errorf("trajectory %+v, want %+v", got, c.want)
			}
			if eq, ce := res.Machine.Equivalent(truth); !eq {
				t.Errorf("learned machine differs from mealy.FromPolicy, ce=%v", ce)
			}
		})
	}
}

// TestTreeTrajectoryDeterministic pins the discrimination-tree learner's
// exact trajectory the same way: the same policies through NewSimOracle
// with learn.AlgoTree, and one serial MachineTeacher learn. Conformance
// chunking and tree bookkeeping may move wall-clock time, never a counter.
// Under -short only SRRIP-HP-4 and the serial case run: the race step
// would spend a minute on the rest.
func TestTreeTrajectoryDeterministic(t *testing.T) {
	cases := []struct {
		policy string
		assoc  int
		serial bool // learn from learn.MachineTeacher instead of the oracle
		heavy  bool // skipped under -short, which keeps one case per teacher
		want   learn.Stats
	}{
		{"New1", 4, false, true, learn.Stats{OutputQueries: 46418, QuerySymbols: 455883, Rounds: 148, TestWords: 899675, Counterexample: 151}},
		{"New2", 4, false, true, learn.Stats{OutputQueries: 65245, QuerySymbols: 798101, Rounds: 136, TestWords: 713579, Counterexample: 144}},
		{"SRRIP-HP", 4, false, false, learn.Stats{OutputQueries: 45623, QuerySymbols: 517643, Rounds: 118, TestWords: 575067, Counterexample: 138}},
		{"MRU", 8, false, true, learn.Stats{OutputQueries: 120545, QuerySymbols: 1544682, Rounds: 98, TestWords: 1178629, Counterexample: 129}},
		{"SRRIP-FP", 4, false, true, learn.Stats{OutputQueries: 86076, QuerySymbols: 1109330, Rounds: 198, TestWords: 1096082, Counterexample: 220}},
		{"New1", 4, true, false, learn.Stats{OutputQueries: 46373, QuerySymbols: 455606, Rounds: 148, TestWords: 899675, Counterexample: 151}},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s-%d", c.policy, c.assoc)
		if c.serial {
			name += "/serial"
		}
		t.Run(name, func(t *testing.T) {
			if c.heavy && testing.Short() {
				t.Skip("heavy under -race; run without -short")
			}
			truth, err := mealy.FromPolicy(policy.MustNew(c.policy, c.assoc), 0)
			if err != nil {
				t.Fatal(err)
			}
			var teacher learn.Teacher = learn.MachineTeacher{M: truth}
			if !c.serial {
				oracle, _, _, err := NewSimOracle(c.policy, c.assoc, SimOptions{})
				if err != nil {
					t.Fatal(err)
				}
				teacher = oracle
			}
			res, err := learn.Learn(context.Background(), teacher, learn.Options{Depth: 1, Algo: learn.AlgoTree})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Stats
			got.Duration = 0
			if got != c.want {
				t.Errorf("trajectory %+v, want %+v", got, c.want)
			}
			if eq, ce := res.Machine.Equivalent(truth); !eq {
				t.Errorf("learned machine differs from mealy.FromPolicy, ce=%v", ce)
			}
		})
	}
}
