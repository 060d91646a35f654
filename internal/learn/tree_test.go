package learn

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// matrixCase is one published-artifact policy (cmd/genmodels's matrix).
// mustWin marks the policies where the tree learner is required to ask
// strictly fewer output queries than L* (the acceptance bar); on the rest it
// may pay a small overhead — L*'s Maler–Pnueli column splat is occasionally
// very effective (SRRIP-HP-4) — but never more than slack x the L* count.
type matrixCase struct {
	name    string
	assoc   int
	heavy   bool // skipped in -short runs
	mustWin bool
}

func modelMatrix(short bool) []matrixCase {
	all := []matrixCase{
		{"FIFO", 4, false, true}, {"LRU", 4, false, true},
		{"PLRU", 4, false, true}, {"PLRU", 8, false, true},
		{"MRU", 4, false, true}, {"LIP", 4, false, true},
		{"SRRIP-HP", 4, false, false}, {"SRRIP-FP", 4, true, true},
		{"New1", 4, true, true}, {"New2", 4, true, true},
	}
	var out []matrixCase
	for _, c := range all {
		if short && c.heavy {
			continue
		}
		out = append(out, c)
	}
	return out
}

// TestTreeLearnsModelMatrix: the discrimination-tree learner must learn every
// published policy trace-equivalent to the ground truth and to the L* result,
// minimal, and with strictly fewer output queries than the observation table
// — the algorithm's whole reason to exist.
func TestTreeLearnsModelMatrix(t *testing.T) {
	for _, c := range modelMatrix(testing.Short()) {
		c := c
		t.Run(policyKey(c.name, c.assoc), func(t *testing.T) {
			truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1, Algo: AlgoTree})
			if err != nil {
				t.Fatal(err)
			}
			if eq, ce := tree.Machine.Equivalent(truth); !eq {
				t.Fatalf("tree machine differs from truth, ce=%v", ce)
			}
			if min := truth.Minimize(); tree.Machine.NumStates != min.NumStates {
				t.Errorf("tree learned %d states, minimal is %d", tree.Machine.NumStates, min.NumStates)
			}
			lstar, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1, Algo: AlgoLStar})
			if err != nil {
				t.Fatal(err)
			}
			if eq, ce := tree.Machine.Equivalent(lstar.Machine); !eq {
				t.Fatalf("tree and L* machines differ, ce=%v", ce)
			}
			if c.mustWin && tree.Stats.OutputQueries >= lstar.Stats.OutputQueries {
				t.Errorf("tree asked %d output queries, L* %d — no query win",
					tree.Stats.OutputQueries, lstar.Stats.OutputQueries)
			}
			const slack = 1.2
			if float64(tree.Stats.OutputQueries) > slack*float64(lstar.Stats.OutputQueries) {
				t.Errorf("tree asked %d output queries, more than %.1fx the L* count %d",
					tree.Stats.OutputQueries, slack, lstar.Stats.OutputQueries)
			}
		})
	}
}

func policyKey(name string, assoc int) string {
	return fmt.Sprintf("%s-%d", name, assoc)
}

// TestTreeMatchesLStarUnderBatchedTeachers: the cross-algorithm property
// under both teacher regimes. For each policy the four runs — {tree, L*} x
// {serial, batched} — must agree: batched learning must reproduce the serial
// machine of its own algorithm *exactly* (the batch engine only prefetches),
// and the two algorithms' machines must be trace-equivalent.
func TestTreeMatchesLStarUnderBatchedTeachers(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
	}{{"PLRU", 4}, {"MRU", 4}, {"SRRIP-HP", 2}, {"New1", 2}} {
		truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
		if err != nil {
			t.Fatal(err)
		}
		machines := make(map[Algo][]*mealy.Machine)
		for _, algo := range []Algo{AlgoLStar, AlgoTree} {
			serial, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1, Algo: algo})
			if err != nil {
				t.Fatal(err)
			}
			batched, err := Learn(context.Background(), hintTeacher{poolTeacher{MachineTeacher{M: truth}}, 4},
				Options{Depth: 1, Algo: algo})
			if err != nil {
				t.Fatal(err)
			}
			bm, sm := batched.Machine, serial.Machine
			if bm.NumStates != sm.NumStates || bm.Init != sm.Init ||
				!reflect.DeepEqual(bm.Next, sm.Next) || !reflect.DeepEqual(bm.Out, sm.Out) {
				t.Errorf("%s-%d/%v: batched learning diverged from the serial reference", c.name, c.assoc, algo)
			}
			machines[algo] = []*mealy.Machine{sm, bm}
		}
		for _, tm := range machines[AlgoTree] {
			if eq, ce := tm.Equivalent(machines[AlgoLStar][0]); !eq {
				t.Errorf("%s-%d: tree and L* machines differ, ce=%v", c.name, c.assoc, ce)
			}
			if eq, ce := tm.Equivalent(truth); !eq {
				t.Errorf("%s-%d: tree machine differs from truth, ce=%v", c.name, c.assoc, ce)
			}
		}
	}
}

// TestTreeViaPolcaOracle drives the §6 pipeline with the tree learner:
// learner -> Polca -> simulated cache, serial and on the batched replica
// engine, checked against the ground-truth automaton and the paper's state
// counts.
func TestTreeViaPolcaOracle(t *testing.T) {
	cases := []struct {
		name  string
		assoc int
	}{
		{"FIFO", 8},
		{"LRU", 4},
		{"PLRU", 4},
		{"MRU", 4},
		{"SRRIP-HP", 2},
		{"New1", 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			truth, _ := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
			serialOracle := polca.NewOracle(polca.NewSimProber(policy.MustNew(c.name, c.assoc)),
				polca.WithParallelism(1))
			serial, err := Learn(context.Background(), serialOracle, Options{Depth: 1, Algo: AlgoTree})
			if err != nil {
				t.Fatal(err)
			}
			if want := truth.Minimize().NumStates; serial.Machine.NumStates != want {
				t.Errorf("learned %d states, want %d", serial.Machine.NumStates, want)
			}
			if eq, ce := serial.Machine.Equivalent(truth); !eq {
				t.Fatalf("serial tree machine differs from truth, ce=%v", ce)
			}
			parOracle := polca.NewOracle(polca.NewSimProber(policy.MustNew(c.name, c.assoc)),
				polca.WithParallelism(8))
			batched, err := Learn(context.Background(), parOracle, Options{Depth: 1, Algo: AlgoTree})
			if err != nil {
				t.Fatal(err)
			}
			if eq, ce := batched.Machine.Equivalent(serial.Machine); !eq {
				t.Errorf("batched tree learning diverged from serial, ce=%v", ce)
			}
		})
	}
}

// TestTreeLearnerConcurrencyRace drives two tree learners on the replica
// engine concurrently — each over its own batched oracle fanning session
// probes across parallel goroutines, plus a third goroutine hammering one of
// the shared oracles directly. It exists to run under -race: the tree
// learner's batched prefetch path must be data-race free end to end.
func TestTreeLearnerConcurrencyRace(t *testing.T) {
	oracle := polca.NewOracle(polca.NewSimProber(policy.MustNew("MRU", 4)),
		polca.WithParallelism(8))
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Learn(context.Background(), oracle, Options{Depth: 1, Algo: AlgoTree})
			if err != nil {
				errCh <- err
				return
			}
			if eq, _ := res.Machine.Equivalent(truth); !eq {
				t.Error("concurrent tree learning produced a wrong machine")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		words := qstore.Enumerate(truth.NumInputs, 2)[1:]
		got, err := oracle.OutputQueryBatch(context.Background(), words)
		if err != nil {
			errCh <- err
			return
		}
		for i, w := range words {
			if !reflect.DeepEqual(got[i], truth.Run(w)) {
				t.Errorf("concurrent batch answer wrong for %v", w)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestTreeRandomWalkReproducible: SuiteRandomWalk with a fixed seed must
// reproduce the exact same machine and trajectory, and a different seed must
// still converge to a trace-equivalent machine.
func TestTreeRandomWalkReproducible(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)
	opt := Options{Algo: AlgoTree, Suite: SuiteRandomWalk, RandomWalkSteps: 200000, RandomWalkSeed: 7}
	a, err := Learn(context.Background(), MachineTeacher{M: truth}, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Learn(context.Background(), MachineTeacher{M: truth}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Machine, b.Machine) || a.Stats.OutputQueries != b.Stats.OutputQueries {
		t.Error("same seed did not reproduce the same learning run")
	}
	if eq, ce := a.Machine.Equivalent(truth); !eq {
		t.Errorf("random-walk tree learning failed, ce=%v", ce)
	}
	opt.RandomWalkSeed = 99
	c, err := Learn(context.Background(), MachineTeacher{M: truth}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := c.Machine.Equivalent(truth); !eq {
		t.Errorf("reseeded random-walk learning failed, ce=%v", ce)
	}
}

// TestTreeBudgets: the tree learner must honor the same state budget as
// the table learner.
func TestTreeBudgets(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("LRU", 4), 0)
	if _, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1, Algo: AlgoTree, MaxStates: 5}); !errors.Is(err, ErrStateBudget) {
		t.Errorf("err = %v, want ErrStateBudget", err)
	}
}

// TestTreeTrivialSingleStatePolicy: the degenerate one-state machine must be
// learned without ever needing a split.
func TestTreeTrivialSingleStatePolicy(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("FIFO", 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Learn(context.Background(), MachineTeacher{M: truth}, Options{Depth: 1, Algo: AlgoTree})
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

// TestTreeNondeterministicTeacherFails mirrors the L* behavior: a randomly
// evicting cache must abort tree learning through one of the defended paths
// (determinism audit, state budget, or a split whose discriminator does not
// separate).
func TestTreeNondeterministicTeacherFails(t *testing.T) {
	oracle := polca.NewOracle(polca.NewSimProber(policy.NewRandom(4, 3)),
		polca.WithDeterminismChecks(8))
	if _, err := Learn(context.Background(), oracle, Options{Depth: 1, Algo: AlgoTree, MaxStates: 3000}); err == nil {
		t.Fatal("learning a nondeterministic cache succeeded")
	}
}

// TestParseAlgo covers the flag spellings used by the CLIs.
func TestParseAlgo(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Algo
	}{
		{"lstar", AlgoLStar}, {"L*", AlgoLStar}, {"", AlgoLStar},
		{"tree", AlgoTree}, {"TTT", AlgoTree}, {"dt", AlgoTree},
	} {
		got, err := ParseAlgo(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseAlgo(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseAlgo("bogus"); err == nil {
		t.Error("ParseAlgo accepted garbage")
	}
	if AlgoLStar.String() != "lstar" || AlgoTree.String() != "tree" {
		t.Error("Algo.String does not round-trip the flag spellings")
	}
}
