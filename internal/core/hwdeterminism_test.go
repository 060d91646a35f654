package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cachequery"
	"repro/internal/hw"
	"repro/internal/learn"
)

// TestLearnHardwareReplicaCountersDeterministic: on the replica engine the
// oracle's words run on concurrent goroutines, but the determinism audit
// must still re-check the same words, so every oracle and frontend counter
// — not only the machine — is identical at any GOMAXPROCS. Only the
// frontend's wall-clock Duration may differ.
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
