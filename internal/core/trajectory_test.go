package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
)

// trajectoryCase is one pinned learn: a policy, whether -short skips it,
// and the exact learn.Stats (Duration aside) every teacher must reproduce.
type trajectoryCase struct {
	policy string
	assoc  int
	heavy  bool // skipped under -short
	want   learn.Stats
}

// checkTrajectories learns every case twice with the given options — once
// through NewSimOracle with default SimOptions and once from a serial
// learn.MachineTeacher — and requires both to reproduce the pinned stats
// and a machine trace-equivalent to mealy.FromPolicy. A simulator oracle
// hints a batch width of 1, so both runs ask the same words in the same
// order.
func checkTrajectories(t *testing.T, opt learn.Options, cases []trajectoryCase) {
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%d", c.policy, c.assoc), func(t *testing.T) {
			if c.heavy && testing.Short() {
				t.Skip("heavy under -race; run without -short")
			}
			truth, err := mealy.FromPolicy(policy.MustNew(c.policy, c.assoc), 0)
			if err != nil {
				t.Fatal(err)
			}
			oracle, _, _, err := NewSimOracle(c.policy, c.assoc, SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, teacher := range []struct {
				name string
				t    learn.Teacher
			}{{"oracle", oracle}, {"machine", learn.MachineTeacher{M: truth}}} {
				res, err := learn.Learn(context.Background(), teacher.t, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := res.Stats
				got.Duration = 0
				if got != c.want {
					t.Errorf("%s: trajectory %+v, want %+v", teacher.name, got, c.want)
				}
				if eq, ce := res.Machine.Equivalent(truth); !eq {
					t.Errorf("%s: learned machine differs from mealy.FromPolicy, ce=%v", teacher.name, ce)
				}
			}
		})
	}
}

// TestLStarTrajectoryDeterministic pins the L* learner's exact trajectory
// (every learn.Stats counter except Duration) for the default pipeline —
// L*, Wp, depth 1. Table bookkeeping (cached row folds, the resumed closing
// scan) must not change which queries are asked, in which order, or how
// many rounds it takes; only wall-clock time may move.
func TestLStarTrajectoryDeterministic(t *testing.T) {
	checkTrajectories(t, learn.Options{Depth: 1}, []trajectoryCase{
		{"New1", 4, false, learn.Stats{OutputQueries: 73734, QuerySymbols: 812468, Rounds: 15, TestWords: 58639, Counterexample: 14}},
		{"New2", 4, false, learn.Stats{OutputQueries: 88155, QuerySymbols: 1196474, Rounds: 15, TestWords: 46545, Counterexample: 14}},
		{"SRRIP-HP", 4, false, learn.Stats{OutputQueries: 41254, QuerySymbols: 484025, Rounds: 8, TestWords: 49078, Counterexample: 7}},
		{"MRU", 8, false, learn.Stats{OutputQueries: 163484, QuerySymbols: 1980871, Rounds: 8, TestWords: 96794, Counterexample: 7}},
		{"SRRIP-FP", 4, true, learn.Stats{OutputQueries: 224187, QuerySymbols: 3184397, Rounds: 27, TestWords: 316398, Counterexample: 26}},
	})
}

// TestTreeTrajectoryDeterministic pins the discrimination-tree learner's
// exact trajectory the same way, with learn.AlgoTree. Conformance chunking
// and tree bookkeeping may move wall-clock time, never a counter. Under
// -short only SRRIP-HP-4 runs: the race step would spend minutes on the
// rest.
func TestTreeTrajectoryDeterministic(t *testing.T) {
	checkTrajectories(t, learn.Options{Depth: 1, Algo: learn.AlgoTree}, []trajectoryCase{
		{"New1", 4, true, learn.Stats{OutputQueries: 46373, QuerySymbols: 455606, Rounds: 148, TestWords: 899675, Counterexample: 151}},
		{"New2", 4, true, learn.Stats{OutputQueries: 65148, QuerySymbols: 797210, Rounds: 136, TestWords: 713579, Counterexample: 144}},
		{"SRRIP-HP", 4, false, learn.Stats{OutputQueries: 45459, QuerySymbols: 516124, Rounds: 118, TestWords: 575067, Counterexample: 138}},
		{"MRU", 8, true, learn.Stats{OutputQueries: 120457, QuerySymbols: 1543966, Rounds: 98, TestWords: 1178629, Counterexample: 129}},
		{"SRRIP-FP", 4, true, learn.Stats{OutputQueries: 85827, QuerySymbols: 1106685, Rounds: 198, TestWords: 1096082, Counterexample: 220}},
	})
}
