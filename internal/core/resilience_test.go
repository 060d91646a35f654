package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cachequery"
	"repro/internal/faulty"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
)

// fastRetry is the default retry policy with the backoff sleeps shrunk to
// microseconds: soak runs absorb tens of thousands of injected transient
// faults, and realistic millisecond backoffs would dominate the test's
// wall-clock without changing any trajectory.
func fastRetry() *polca.RetryPolicy {
	rp := polca.DefaultRetryPolicy
	rp.BaseDelay = 20 * time.Microsecond
	rp.MaxDelay = 200 * time.Microsecond
	return &rp
}

// machineJSON renders a machine in its canonical serialized form, the same
// bytes cmd/genmodels writes — "byte-identical model" means equal here.
func machineJSON(t *testing.T, m *mealy.Machine) []byte {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFaultSoakSimulated: a learn under a seeded mix of transient errors,
// stalls and answer flips must converge to the byte-identical machine of a
// fault-free run — retries absorb the errors, voting outvotes the flips —
// and the resilience counters must show the machinery actually engaged.
func TestFaultSoakSimulated(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"New1", "New2"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opt := learn.Options{Depth: 1, Algo: learn.AlgoTree}
			clean, err := LearnSimulated(context.Background(), SimRequest{Policy: name, Assoc: 4, Learn: opt})
			if err != nil {
				t.Fatal(err)
			}
			plan := faulty.Plan{Seed: 42, ErrRate: 0.05, FlipRate: 0.002, DieReplica: -1}
			soak, err := LearnSimulated(context.Background(), SimRequest{
				Policy: name,
				Assoc:  4,
				Learn:  opt,
				Sim:    SimOptions{Faults: &plan, Retry: fastRetry()},
			})
			if err != nil {
				t.Fatalf("faulty learn failed outright: %v", err)
			}
			if !bytes.Equal(machineJSON(t, clean.Machine), machineJSON(t, soak.Machine)) {
				t.Error("faulty learn converged to a different machine")
			}
			if soak.OracleStats.Retries == 0 {
				t.Error("5% error rate produced zero probe retries; injection or retry accounting is dead")
			}
			truth, err := mealy.FromPolicy(policy.MustNew(name, 4), 0)
			if err != nil {
				t.Fatal(err)
			}
			if eq, _ := soak.Machine.Equivalent(truth); !eq {
				t.Error("faulty learn diverged from ground truth")
			}
		})
	}
}

// TestFaultSoakReproducible: two runs of the same fault plan take the exact
// same trajectory — equal retry and disagreement counters, not just equal
// machines. This is the property that makes a failing soak debuggable.
func TestFaultSoakReproducible(t *testing.T) {
	t.Parallel()
	opt := learn.Options{Depth: 1, Algo: learn.AlgoTree}
	run := func() *SimResult {
		t.Helper()
		plan := faulty.Plan{Seed: 7, ErrRate: 0.05, FlipRate: 0.002, DieReplica: -1}
		res, err := LearnSimulated(context.Background(), SimRequest{
			Policy: "New1",
			Assoc:  4,
			Learn:  opt,
			Sim:    SimOptions{Faults: &plan, Retry: fastRetry()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.OracleStats.Retries != b.OracleStats.Retries ||
		a.OracleStats.Disagreements != b.OracleStats.Disagreements ||
		a.OracleStats.Probes != b.OracleStats.Probes {
		t.Errorf("same plan, different trajectories: %+v vs %+v", a.OracleStats, b.OracleStats)
	}
	if !bytes.Equal(machineJSON(t, a.Machine), machineJSON(t, b.Machine)) {
		t.Error("same plan, different machines")
	}
}

// TestFaultSoakCountersDeterministic pins the absolute counters of
// TestFaultSoakReproducible's faulted simulator learn. The fault wrapper
// hides the simulator from the oracle's engine, so every query takes the
// reset-rooted probe path one probe or group run at a time, with three
// votes per execution against the plan's answer flips; retries,
// disagreements, probes and memo hits all follow from the seeded plan
// alone.
func TestFaultSoakCountersDeterministic(t *testing.T) {
	t.Parallel()
	plan := faulty.Plan{Seed: 7, ErrRate: 0.05, FlipRate: 0.002, DieReplica: -1}
	res, err := LearnSimulated(context.Background(), SimRequest{
		Policy: "New1",
		Assoc:  4,
		Learn:  learn.Options{Depth: 1, Algo: learn.AlgoTree},
		Sim:    SimOptions{Faults: &plan, Retry: fastRetry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res.LearnStats.Duration = 0
	wantLearn := learn.Stats{OutputQueries: 46373, QuerySymbols: 455606, Rounds: 148, TestWords: 899675, Counterexample: 151}
	wantOracle := polca.Stats{OutputQueries: 46373, Symbols: 455606, Probes: 198334, MemoHits: 748653,
		Accesses: 2187258, Retries: 31106, Disagreements: 1268, Reprobes: 6}
	if res.LearnStats != wantLearn {
		t.Errorf("learner stats %+v, want %+v", res.LearnStats, wantLearn)
	}
	if res.OracleStats != wantOracle {
		t.Errorf("oracle stats %+v, want %+v", res.OracleStats, wantOracle)
	}
}

// TestFaultSoakHardwareReplicaDeath: the full hardware pipeline under ≥5%
// transient errors plus one replica death mid-run must still learn the
// byte-identical machine of a fault-free run — the pool quarantines the dead
// replica and shrinks, the oracle retries the rest.
func TestFaultSoakHardwareReplicaDeath(t *testing.T) {
	t.Parallel()
	request := func(plan *faulty.Plan) HardwareRequest {
		return HardwareRequest{
			CPU:      hw.NewCPU(testCPU(), 9),
			NewCPU:   func() *hw.CPU { return hw.NewCPU(testCPU(), 9) },
			Replicas: 3,
			Target:   cachequery.Target{Level: hw.L1, Set: 5},
			Backend:  cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
			Learn:    learn.Options{Depth: 1, Algo: learn.AlgoTree},
			Faults:   plan,
			Retry:    fastRetry(),
		}
	}
	clean, err := LearnHardware(context.Background(), request(nil))
	if err != nil {
		t.Fatal(err)
	}
	plan := &faulty.Plan{Seed: 11, ErrRate: 0.05, DieReplica: 1, DieAfter: 40}
	soak, err := LearnHardware(context.Background(), request(plan))
	if err != nil {
		t.Fatalf("soak run failed outright: %v", err)
	}
	if !bytes.Equal(machineJSON(t, clean.Machine), machineJSON(t, soak.Machine)) {
		t.Error("soak run converged to a different machine")
	}
	if soak.OracleStats.Retries == 0 {
		t.Error("no retries recorded under a 5% error rate plus replica death")
	}
}

// TestCrashResumeConvergesIdentically: a learn killed mid-run by an injected
// crash leaves a checkpoint behind; resuming from it must converge to the
// byte-identical machine of an uninterrupted run, and must replay recorded
// answers instead of re-probing — strictly fewer backend probes than cold.
func TestCrashResumeConvergesIdentically(t *testing.T) {
	t.Parallel()
	opt := learn.Options{Depth: 1, Algo: learn.AlgoTree}
	clean, err := LearnSimulated(context.Background(), SimRequest{Policy: "New1", Assoc: 4, Learn: opt})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "new1.qs")
	crash := &faulty.Plan{Seed: 1, CrashAfter: 600, DieReplica: -1}
	_, err = LearnSimulated(context.Background(), SimRequest{
		Policy:   "New1",
		Assoc:    4,
		Learn:    opt,
		Snapshot: SnapshotOptions{SavePath: ckpt, CheckpointEvery: 16},
		Sim:      SimOptions{Faults: crash},
	})
	if !errors.Is(err, faulty.ErrCrash) {
		t.Fatalf("crash plan returned %v, want ErrCrash", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint survived the crash: %v", err)
	}

	resumed, err := LearnSimulated(context.Background(), SimRequest{
		Policy:   "New1",
		Assoc:    4,
		Learn:    opt,
		Snapshot: SnapshotOptions{WarmPath: ckpt, SavePath: ckpt, CheckpointEvery: 16, ColdOnDamage: true},
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !bytes.Equal(machineJSON(t, clean.Machine), machineJSON(t, resumed.Machine)) {
		t.Error("resumed learn converged to a different machine")
	}
	if resumed.OracleStats.Probes >= clean.OracleStats.Probes {
		t.Errorf("resume probed %d times, cold run %d — the checkpoint was not replayed",
			resumed.OracleStats.Probes, clean.OracleStats.Probes)
	}
}

// TestCheckpointsWrittenDuringLearn: with a small checkpoint window the
// snapshot file must exist before the run finishes — checked by crashing
// immediately after a window boundary and finding a loadable snapshot.
func TestCheckpointsWrittenDuringLearn(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "mru.qs")
	crash := &faulty.Plan{Seed: 1, CrashAfter: 200, DieReplica: -1}
	_, err := LearnSimulated(context.Background(), SimRequest{
		Policy:   "MRU",
		Assoc:    4,
		Learn:    learn.Options{Depth: 1},
		Snapshot: SnapshotOptions{SavePath: ckpt, CheckpointEvery: 8},
		Sim:      SimOptions{Faults: crash},
	})
	if !errors.Is(err, faulty.ErrCrash) {
		t.Fatalf("crash plan returned %v", err)
	}
	// The checkpoint must be complete and warm-startable, not torn.
	res, err := LearnSimulated(context.Background(), SimRequest{
		Policy:   "MRU",
		Assoc:    4,
		Learn:    learn.Options{Depth: 1},
		Snapshot: SnapshotOptions{WarmPath: ckpt},
	})
	if err != nil {
		t.Fatalf("checkpoint unusable: %v", err)
	}
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)
	if eq, _ := res.Machine.Equivalent(truth); !eq {
		t.Error("learn resumed from checkpoint mislearned")
	}
}

// TestColdOnDamageDegrades: a missing or damaged warm-start snapshot
// degrades to a cold run when ColdOnDamage is set, and still fails loudly
// when it is not.
func TestColdOnDamageDegrades(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opt := learn.Options{Depth: 1}
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)

	check := func(name, warm string) {
		t.Helper()
		res, err := LearnSimulated(context.Background(), SimRequest{
			Policy:   "MRU",
			Assoc:    4,
			Learn:    opt,
			Snapshot: SnapshotOptions{WarmPath: warm, ColdOnDamage: true},
		})
		if err != nil {
			t.Fatalf("%s: degrade failed: %v", name, err)
		}
		if eq, _ := res.Machine.Equivalent(truth); !eq {
			t.Errorf("%s: cold fallback mislearned", name)
		}
		if _, err := LearnSimulated(context.Background(), SimRequest{
			Policy:   "MRU",
			Assoc:    4,
			Learn:    opt,
			Snapshot: SnapshotOptions{WarmPath: warm},
		}); err == nil {
			t.Errorf("%s: damage accepted without ColdOnDamage", name)
		}
	}

	check("missing", filepath.Join(dir, "never-written.qs"))

	// A truncated snapshot: record a good one, cut it in half.
	good := filepath.Join(dir, "good.qs")
	if _, err := LearnSimulated(context.Background(), SimRequest{
		Policy:   "MRU",
		Assoc:    4,
		Learn:    opt,
		Snapshot: SnapshotOptions{SavePath: good},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.qs")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	check("truncated", trunc)

	garbage := filepath.Join(dir, "garbage.qs")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("garbage", garbage)

	// A scope mismatch is a caller bug, not damage: it must fail even with
	// ColdOnDamage set.
	if _, err := LearnSimulated(context.Background(), SimRequest{
		Policy:   "LRU",
		Assoc:    4,
		Learn:    opt,
		Snapshot: SnapshotOptions{WarmPath: good, ColdOnDamage: true},
	}); err == nil {
		t.Error("snapshot for MRU accepted as warm start for LRU")
	}
}
