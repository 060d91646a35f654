package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cachequery"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/polca"
)

// TestLearnHardwareReplicaCountersDeterministic: on the replica engine the
// oracle's words run on concurrent goroutines, but the determinism audit
// must still re-check the same words, so every oracle and frontend counter
// — not only the machine — is identical at any GOMAXPROCS. Only the
// frontend's wall-clock Duration may differ. The counters are pinned to
// absolute values: every probe the oracle counts executes exactly once on
// a replica, and no result cache answers any of them.
func TestLearnHardwareReplicaCountersDeterministic(t *testing.T) {
	run := func(procs int) *HardwareResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := LearnHardware(context.Background(), HardwareRequest{
			CPU:              hw.NewCPU(testCPU(), 9),
			NewCPU:           func() *hw.CPU { return hw.NewCPU(testCPU(), 9) },
			Replicas:         2,
			Target:           cachequery.Target{Level: hw.L1, Set: 5},
			Backend:          cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
			Learn:            learn.Options{Depth: 1},
			DeterminismEvery: 7,
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		res.Frontend.Duration = 0
		res.LearnStats.Duration = 0
		return res
	}
	ref := run(1)
	wantLearn := learn.Stats{OutputQueries: 557, QuerySymbols: 2557, Rounds: 3, TestWords: 452, Counterexample: 2}
	wantOracle := polca.Stats{OutputQueries: 557, Symbols: 2557, Probes: 2963, MemoHits: 2643, Accesses: 15517}
	wantFrontend := cachequery.FrontendStats{Executed: 2963}
	if ref.Machine.NumStates != 8 {
		t.Errorf("learned %d states, want 8", ref.Machine.NumStates)
	}
	if ref.LearnStats != wantLearn {
		t.Errorf("learner stats %+v, want %+v", ref.LearnStats, wantLearn)
	}
	if ref.OracleStats != wantOracle {
		t.Errorf("oracle stats %+v, want %+v", ref.OracleStats, wantOracle)
	}
	if ref.Frontend != wantFrontend {
		t.Errorf("frontend stats %+v, want %+v", ref.Frontend, wantFrontend)
	}
	for _, procs := range []int{8, 8, 1} {
		got := run(procs)
		if eq, ce := got.Machine.Equivalent(ref.Machine); !eq {
			t.Fatalf("GOMAXPROCS=%d: machine diverged, ce=%v", procs, ce)
		}
		if got.LearnStats != ref.LearnStats {
			t.Errorf("GOMAXPROCS=%d: learner stats %+v, want %+v", procs, got.LearnStats, ref.LearnStats)
		}
		if got.OracleStats != ref.OracleStats {
			t.Errorf("GOMAXPROCS=%d: oracle stats %+v, want %+v", procs, got.OracleStats, ref.OracleStats)
		}
		if got.Frontend != ref.Frontend {
			t.Errorf("GOMAXPROCS=%d: frontend stats %+v, want %+v", procs, got.Frontend, ref.Frontend)
		}
	}
}

// TestLearnHardwareSerialCountersDeterministic pins the serial hardware
// pipeline: one replica and no CPU factory, so the oracle runs a bare
// cachequery.Prober (no ProbeBatcher, no concurrency) and issues every
// eviction probe one at a time through the reset-rooted probe path. Its
// learner, oracle and frontend counters are absolute and must not move at
// any GOMAXPROCS.
func TestLearnHardwareSerialCountersDeterministic(t *testing.T) {
	run := func(procs int) *HardwareResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := LearnHardware(context.Background(), HardwareRequest{
			CPU:              hw.NewCPU(testCPU(), 9),
			Replicas:         1,
			Target:           cachequery.Target{Level: hw.L1, Set: 5},
			Backend:          cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
			Learn:            learn.Options{Depth: 1},
			DeterminismEvery: 7,
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		res.Frontend.Duration = 0
		res.LearnStats.Duration = 0
		return res
	}
	wantLearn := learn.Stats{OutputQueries: 559, QuerySymbols: 2563, Rounds: 3, TestWords: 452, Counterexample: 2}
	wantOracle := polca.Stats{OutputQueries: 559, Symbols: 2563, Probes: 2984, MemoHits: 2653, Accesses: 15683}
	wantFrontend := cachequery.FrontendStats{Executed: 2984}
	for _, procs := range []int{1, 8} {
		got := run(procs)
		if got.Machine.NumStates != 8 {
			t.Errorf("GOMAXPROCS=%d: learned %d states, want 8", procs, got.Machine.NumStates)
		}
		if got.LearnStats != wantLearn {
			t.Errorf("GOMAXPROCS=%d: learner stats %+v, want %+v", procs, got.LearnStats, wantLearn)
		}
		if got.OracleStats != wantOracle {
			t.Errorf("GOMAXPROCS=%d: oracle stats %+v, want %+v", procs, got.OracleStats, wantOracle)
		}
		if got.Frontend != wantFrontend {
			t.Errorf("GOMAXPROCS=%d: frontend stats %+v, want %+v", procs, got.Frontend, wantFrontend)
		}
	}
}
